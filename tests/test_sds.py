"""Sliding-window stay/travel labeling on single trajectories."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.lib.stride_tricks import as_strided

from helpers import (
    ONE_HZ_KINDS,
    SMALLEST_DELTA_S,
    brute_dense_member,
    brute_travel_witness,
    dense_stay_membership,
    dense_trajectory,
    minutes,
    one_hz_path,
    random_trajectory,
    reference_stay_pass,
    segment_bounds,
    stay_flags_at,
    stay_heads,
    traj_from_meters,
    travel_condition_all,
    travel_flags_at,
)
import sparsemob.sds as sds
from sparsemob.core import METERS_PER_DEGREE, MobilityParams, Trajectory, planar, radii
from sparsemob.oracle import exact_label
from sparsemob.sds import (
    BLOCK,
    SUPER,
    LabeledTrajectory,
    _block_boxes,
    _far_lockstep,
    _far_scan,
    _first_rows,
    RecallBounds,
    label_kernel,
    recall_lower_bounds,
    sds_label,
)
from sparsemob.simulate import CtrwConfig, generate_ctrw, observe, synth_schedule

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)


def stay_cluster_plus_escape():
    """Four records within 100 m over 40 minutes, then a fifth 1 km away."""
    return traj_from_meters(
        minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0]
    )


def three_record_travel():
    """Three records 1 km apart at 10 minute spacing."""
    return traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0])


def kernel(traj, witness=PARAMS.delta_s):
    """label_kernel at the labeler's thresholds on an equator-built fixture."""
    x = traj.lons * METERS_PER_DEGREE
    y = traj.lats * METERS_PER_DEGREE
    return label_kernel(
        x, y, traj.times, PARAMS.delta_t, PARAMS.delta_s / 3.0, witness
    )


class TestDetectStays:
    """Stay detection through label_kernel and stay_flags_at."""

    def test_escape_flushes_preceding_window(self):
        traj = stay_cluster_plus_escape()
        flags = stay_flags_at(traj, PARAMS, PARAMS.delta_s / 3.0, ref_lat=0.0)
        assert flags.tolist() == [True, True, True, True, False]

    def test_zero_span_windows_yield_nothing(self):
        stay, _ = kernel(three_record_travel(), witness=None)
        assert not stay.any()

    def test_tail_flush_emits_final_window(self):
        # co-located records spanning 35 min, no escape ever
        traj = traj_from_meters(minutes(0, 10, 20, 35), [0.0, 10.0, 5.0, 8.0])
        assert kernel(traj, witness=None)[0].all()

    def test_window_invariant_on_admission(self, rng):
        # whenever a record joins the window without an escape, every pair in
        # the window must still be closer than the escape distance; so must
        # every pair of the window that an escape or a gap leaves
        for _ in range(40):
            traj = random_trajectory(rng)
            x = traj.lons * METERS_PER_DEGREE
            y = traj.lats * METERS_PER_DEGREE
            escape = PARAMS.delta_s / 3.0
            segments = segment_bounds(traj.times, PARAMS.delta_t)
            heads = stay_heads(x, y, traj.times, escape, PARAMS.delta_t).tolist()
            for cursor, head in enumerate(heads):
                # whole-trajectory indices: the window lies in one segment
                assert any(s <= head <= cursor < e for s, e in segments)
                if cursor and head == heads[cursor - 1]:
                    assert head < cursor
                for a in range(head, cursor + 1):
                    for b in range(a + 1, cursor + 1):
                        d = math.hypot(x[a] - x[b], y[a] - y[b])
                        assert d < escape


class TestDetectTravels:
    """Travel detection through label_kernel and travel_flags_at."""

    def test_bilateral_witnesses_within_window(self):
        traj = three_record_travel()
        flags = travel_flags_at(traj, PARAMS, PARAMS.delta_s, ref_lat=0.0)
        assert flags.tolist() == [False, True, False]

    def test_endpoints_never_flagged(self, rng):
        for _ in range(20):
            traj = random_trajectory(rng)
            _, flags = kernel(traj)
            for s, e in segment_bounds(traj.times, PARAMS.delta_t):
                assert not flags[s]
                assert not flags[e - 1]

    def test_wide_witness_window_rejected(self):
        # same spacing but 25 min apart: witness window spans 50 min > 30
        traj = traj_from_meters(minutes(0, 25, 50), [0.0, 1000.0, 2000.0])
        assert not kernel(traj)[1].any()


class TestSdsLabel:
    def test_stay_cluster_golden(self):
        labeled = sds_label(stay_cluster_plus_escape(), PARAMS, ref_lat=0.0)
        assert labeled.letters() == ["S", "S", "S", "S", "U"]

    def test_travel_golden(self):
        labeled = sds_label(three_record_travel(), PARAMS, ref_lat=0.0)
        assert labeled.letters() == ["U", "T", "U"]

    def test_single_record_unlabeled(self):
        labeled = sds_label(traj_from_meters([0], [0.0]), PARAMS, ref_lat=0.0)
        assert labeled.letters() == ["U"]

    def test_labels_align_and_exclude(self, rng):
        for _ in range(50):
            traj = random_trajectory(rng)
            labeled = sds_label(traj, PARAMS, ref_lat=0.0)
            assert len(labeled.labels) == len(traj)
            # each record carries exactly one verdict by construction
            assert set(labeled.letters()) <= {"S", "T", "U"}

    def test_deterministic(self, rng):
        traj = random_trajectory(rng)
        a = sds_label(traj, PARAMS, ref_lat=0.0)
        b = sds_label(traj, PARAMS, ref_lat=0.0)
        assert (a.labels == b.labels).all()

    def test_stay_soundness_against_dense_membership(self, rng):
        # every Stay under the conservative escape lies in a window of
        # pairwise-close records spanning the dwell threshold, checked by
        # literal enumeration at the same escape distance
        tight = MobilityParams(PARAMS.delta_s / 3.0, PARAMS.delta_t)
        for _ in range(60):
            traj = random_trajectory(rng, max_len=18)
            labeled = sds_label(traj, PARAMS, ref_lat=0.0)
            stay = np.array([s == "S" for s in labeled.letters()])
            member = brute_dense_member(traj, tight.delta_s, tight.delta_t)
            assert (stay <= member).all()

    def test_travel_flags_match_literal_witness_scan(self, rng):
        for _ in range(60):
            traj = random_trajectory(rng, max_len=18)
            labeled = sds_label(traj, PARAMS, ref_lat=0.0)
            travel = np.array([s == "T" for s in labeled.letters()])
            brute = np.array(
                [
                    brute_travel_witness(traj, i, PARAMS.delta_s, PARAMS.delta_t)
                    for i in range(len(traj))
                ]
            )
            assert (travel == brute).all()

    def test_travel_search_needs_no_cross_segment_witnesses(self, rng):
        # the per-segment scan must agree with the whole-trajectory checker:
        # a witness pair within the time window cannot straddle a slice gap
        for _ in range(60):
            traj = random_trajectory(rng)
            labeled = sds_label(traj, PARAMS, ref_lat=0.0)
            travel = np.array([s == "T" for s in labeled.letters()])
            whole = travel_condition_all(
                traj, PARAMS.delta_s, PARAMS.delta_t, ref_lat=0.0
            )
            assert (travel == whole).all()

    def test_antimeridian_dwell_is_not_travel(self):
        # a device parked on the antimeridian, its fixes alternating between
        # either side of it (about 22 m apart), 600 s apart
        traj = Trajectory(
            "dateline",
            np.arange(5, dtype=np.int64) * 600,
            np.array([179.9999, -179.9999] * 2 + [179.9999]),
            np.full(5, 10.0),
        )
        letters = sds_label(traj, PARAMS).letters()
        assert letters == ["S"] * 5
        assert exact_label(traj, PARAMS).letters() == letters
        assert not travel_condition_all(traj, PARAMS.delta_s, PARAMS.delta_t).any()

    def test_colocated_dwell_is_stay_at_every_accepted_delta_s(self):
        # ten records at one spot, 600 s apart: every distance is 0, under
        # any delta_s, so all ten are Stay. At delta_s 1e-200 the squared
        # radii underflowed to 0.0, which 0 reaches: every record escaped
        # and witnessed, and the labeler read UTTTTTTTTU, the oracle
        # TTTTTTTTTT
        traj = traj_from_meters(np.arange(10) * 600, [0.0] * 10)
        accepted = []
        for delta_s in (SMALLEST_DELTA_S, 1e-200, 1e-300, 5e-324):
            try:
                params = MobilityParams(delta_s)
            except ValueError:
                continue
            accepted.append(delta_s)
            assert sds_label(traj, params, ref_lat=0.0).letters() == ["S"] * 10
            assert exact_label(traj, params, ref_lat=0.0).letters() == ["S"] * 10
        assert accepted == [SMALLEST_DELTA_S]

    def test_empty_trajectory(self):
        empty = Trajectory("d", np.array([], dtype=np.int64), np.array([]), np.array([]))
        assert sds_label(empty, PARAMS, ref_lat=0.0).letters() == []


def dense_trajectories(rng, variable_gap, one_hz):
    """Dense trajectories: ``variable_gap`` ones, whose delta_t windows hold
    fewer records than a superblock, with excursions on block edges; then
    ``one_hz`` ones, whose scans step over whole superblocks, with
    excursions on superblock edges, and on block edges in every other one
    (those leave few superblocks free of them)."""
    for _ in range(variable_gap):
        yield dense_trajectory(rng, BLOCK)
    for k in range(one_hz):
        blocks = (SUPER,) if k % 2 else (BLOCK, SUPER)
        yield dense_trajectory(rng, *blocks, records=(600, 3000), gaps=(1, 1))


class TestBlockSkip:
    """Dense trajectories, where the scans step over whole blocks and
    superblocks of records, against the quadratic oracle."""

    def test_flags_match_oracle_on_dense_trajectories(self, rng):
        for traj in dense_trajectories(rng, 40, 4):
            n = len(traj)
            for spatial in (PARAMS.delta_s / 3.0, PARAMS.delta_s):
                stay = stay_flags_at(traj, PARAMS, spatial, ref_lat=0.0)
                dense = MobilityParams(spatial, PARAMS.delta_t)
                member = dense_stay_membership(traj, dense, ref_lat=0.0, limit=n)
                assert (stay == member).all()
            for witness in (PARAMS.delta_s / 2.0, PARAMS.delta_s):
                travel = travel_flags_at(traj, PARAMS, witness, ref_lat=0.0)
                whole = travel_condition_all(
                    traj, witness, PARAMS.delta_t, ref_lat=0.0, limit=n
                )
                assert (travel == whole).all()

    def test_window_invariant_on_dense_trajectories(self, rng):
        escape = PARAMS.delta_s / 3.0
        for traj in dense_trajectories(rng, 20, 6):
            x = traj.lons * METERS_PER_DEGREE
            y = traj.lats * METERS_PER_DEGREE
            heads = stay_heads(x, y, traj.times, escape, PARAMS.delta_t)
            assert window_invariant(x, y, traj.times, heads, escape, PARAMS.delta_t)


def window_invariant(x, y, t, heads, escape, delta_t):
    """Check the stay window [heads[c], c] of every record c, and return the
    admits: the (head, cursor) pairs of the cursors that joined the window
    of the record before them without an escape."""
    segments = segment_bounds(t, delta_t)
    admits = []
    last_head = 0
    for cursor, head in enumerate(heads.tolist()):
        # the head never moves back, so every pair of the window
        # [head, cursor] not checked at an earlier cursor has the cursor
        # as its later member
        assert last_head <= head <= cursor < len(x)
        # whole-trajectory indices: the window lies in one segment
        assert any(s <= head <= cursor < e for s, e in segments)
        d = np.hypot(x[cursor] - x[head:cursor], y[cursor] - y[head:cursor])
        assert (d < escape).all()
        if cursor and head == last_head:
            assert head < cursor
            admits.append((head, cursor))
        last_head = head
    return admits


class TestScans:
    """_far_scan, backward and forward, against a literal scan, on integer
    points where distances tie the radius at box corners."""

    NEAR = 2  # near records lie in [-NEAR, NEAR]^2 around the origin
    FAR = [(3.0, 4.0), (-3.0, -4.0), (4.0, -3.0), (5.0, 0.0), (4.0, 4.0)]

    @staticmethod
    def counted(boxes, budget):
        """The box lists, failing once the scans read more than ``budget``
        items from them (a scan that never ends fails instead of hanging)."""
        reads = [0]

        class Counted(list):
            def __getitem__(self, k):
                reads[0] += 1
                assert reads[0] <= budget, "scan read more boxes than the range has"
                return list.__getitem__(self, k)

        return tuple(Counted(v) for v in boxes), reads

    def trajectory(self, rng, n):
        """Integer points: near ones, and far ones on an edge of most
        superblocks, on two block edges and at two random indices."""
        x = rng.integers(-self.NEAR, self.NEAR + 1, n).astype(float)
        y = rng.integers(-self.NEAR, self.NEAR + 1, n).astype(float)
        spots = [k + int(rng.choice([0, SUPER - 1])) for k in range(0, n, SUPER)]
        spots += (BLOCK * rng.integers(0, -(-n // BLOCK), 2)).tolist()
        spots += (BLOCK * rng.integers(0, -(-n // BLOCK), 2) + BLOCK - 1).tolist()
        spots += rng.integers(0, n, 2).tolist()
        for i in spots:
            if i < n and rng.random() < 0.7:
                x[i], y[i] = self.FAR[int(rng.integers(len(self.FAR)))]
        return x, y

    def test_match_literal_scan(self, rng):
        lengths = [1, 7, BLOCK, 100, SUPER - 1, SUPER, SUPER + 1, 600, 1000, 1030]
        for n in lengths * 6:
            x, y = self.trajectory(rng, n)
            xs, ys = x.tolist(), y.tolist()
            d2 = [a * a + b * b for a, b in zip(xs, ys)]
            blocks = -(-n // BLOCK)
            boxes, reads = self.counted(_block_boxes(x, y), 12 * (blocks + 2))
            for r2 in (25.0, 32.0, 33.0):
                for _ in range(30):
                    lo, a = sorted(rng.integers(0, n, 2).tolist())
                    b, hi = sorted(rng.integers(0, n + 1, 2).tolist())
                    # a forward range is empty where b == hi, its front one
                    # past the end of the records where both are n
                    for front, end, step in ((a, lo, -1), (b, hi - 1, 1)):
                        scan = range(front, end + step, step)
                        want = next((i for i in scan if d2[i] >= r2), -1)
                        reads[0] = 0
                        got = _far_scan(xs, ys, boxes, 0.0, 0.0, r2, front, end, step)
                        assert got == want

    def test_near_range_costs_one_box_per_superblock(self, rng):
        # every box corner is closer than the radius: a scan reads one box
        # per superblock it reaches (six items each)
        for n in (SUPER, 700, 3000):
            x, y = self.trajectory(rng, n)
            xs, ys = x.tolist(), y.tolist()
            boxes, reads = self.counted(_block_boxes(x, y), 6 * (n // SUPER + 3))
            for _ in range(50):
                lo, a = sorted(rng.integers(0, n, 2).tolist())
                for front, end, step in ((a, lo, -1), (lo, a, 1)):
                    reads[0] = 0
                    assert _far_scan(xs, ys, boxes, 0.0, 0.0, 50.0, front, end, step) == -1
                    assert reads[0] <= 6 * (a // SUPER - lo // SUPER + 1)


class TestBlockBoxes:
    """_block_boxes against a literal min and max over each block and
    superblock of the records, the last block padded with the final record."""

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 255, 256, 257, 4097, 4113])
    def test_match_literal_min_max(self, rng, n):
        x, y = rng.normal(0.0, 1000.0, (2, n))
        m = -(-n // BLOCK)
        padded = [v.tolist() + [v[-1]] * (m * BLOCK - n) for v in (x, y)]

        def literal(size):
            return np.array(
                [
                    [pick(v[k : k + size]) for k in range(0, m * BLOCK, size)]
                    for v in padded
                    for pick in (min, max)
                ]
            )

        boxes = _block_boxes(x, y)
        blocks, supers = boxes[8:]
        assert blocks.tobytes() == literal(BLOCK).tobytes()
        assert supers.tobytes() == literal(SUPER).tobytes()
        assert supers.shape == (4, -(-m // BLOCK))
        # the scalar scans read the same boxes as the lockstep rounds
        for view, row in zip(boxes[:8], [*blocks, *supers]):
            assert isinstance(view, memoryview)
            assert view.tobytes() == row.tobytes()


class TestInputLayouts:
    """label_kernel reads memoryviews of its arrays: any layout of the same
    values gives the same flags."""

    @staticmethod
    def layouts(v):
        """The same values contiguous, strided, read-only and big-endian."""
        strided = np.repeat(v, 2)[::2]
        frozen = v.copy()
        frozen.setflags(write=False)
        return [v.copy(), strided, frozen, v.astype(v.dtype.newbyteorder(">"))]

    @pytest.mark.parametrize("kind", ONE_HZ_KINDS)
    def test_flags_equal_across_layouts(self, kind):
        # 1 Hz times near 2**62, where float64 would round the time tests:
        # 40 records go record by record, 700 through the lockstep rounds
        rng = np.random.default_rng((519, ONE_HZ_KINDS.index(kind)))
        delta_t = 600.5
        for n in (40, 700):
            x, y = one_hz_path(rng, kind, n, PARAMS.delta_s / 3.0)
            t = 2**62 + one_hz_times(rng, n, delta_t)
            stay, travel = label_kernel(x, y, t, delta_t, PARAMS.delta_s / 3.0, PARAMS.delta_s)
            assert stay.tolist() == reference_stay_pass(x, y, t, PARAMS.delta_s / 3.0, delta_t)[0]
            assert travel.tolist() == scan_travel(x, y, t, stay, PARAMS.delta_s, delta_t)
            for args in zip(*map(self.layouts, (x, y, t))):
                got = label_kernel(*args, delta_t, PARAMS.delta_s / 3.0, PARAMS.delta_s)
                assert got[0].tolist() == stay.tolist()
                assert got[1].tolist() == travel.tolist()


#: one record of a segment: the gap since the previous record (ignored for
#: the first), then the planar step from it; short gaps and small steps
#: often enough that stay windows and witnesses both occur
_record = st.tuples(
    st.one_of(st.integers(1, 600), st.integers(1, 4000)),
    st.one_of(st.floats(-150.0, 150.0), st.floats(-3000.0, 3000.0)),
    st.one_of(st.floats(-150.0, 150.0), st.floats(-3000.0, 3000.0)),
)


class TestGapContract:
    @settings(deadline=None, max_examples=150)
    @given(
        segments=st.lists(
            st.lists(_record, min_size=1, max_size=25), min_size=1, max_size=4
        ),
        joins=st.lists(st.integers(1, 5000), min_size=3, max_size=3),
        delta_t=st.sampled_from([1800.0, 600.5]),
        witness=st.sampled_from([None, 400.0, 800.0]),
    )
    def test_gap_over_delta_t_splits_labeling(
        self, segments, joins, delta_t, witness
    ):
        # segments joined by gaps > delta_t label as if each were alone
        escape = 800.0 / 3.0
        parts = []
        for records in segments:
            gaps, dx, dy = (np.array(column) for column in zip(*records))
            gaps[0] = 0
            parts.append((np.cumsum(dx), np.cumsum(dy), np.cumsum(gaps)))
        joined_t = []
        end = 0
        for k, (_, _, t) in enumerate(parts):
            start = 0 if k == 0 else end + math.floor(delta_t) + joins[k - 1]
            joined_t.append(t + start)
            end = int(joined_t[-1][-1])
        x = np.concatenate([p[0] for p in parts])
        y = np.concatenate([p[1] for p in parts])
        t = np.concatenate(joined_t).astype(np.int64)
        whole = label_kernel(x, y, t, delta_t, escape, witness)
        alone = [
            label_kernel(px, py, pt, delta_t, escape, witness) for px, py, pt in parts
        ]
        for got, want in zip(whole, zip(*alone)):
            assert got.tolist() == np.concatenate(want).tolist()


def scan_travel(x, y, t, stay, witness, delta_t):
    """Travel flags from the witness scans alone, each starting at offset 1,
    over a time reach found with Python's exact int/float comparisons.

    Record i's reach is [lo, hi): lo the first record less than delta_t
    before it (or i), hi the first after it at delta_t or more (or the end).
    Both only grow with i, so two pointers find every reach in one pass."""
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    boxes = _block_boxes(x, y)
    w2 = witness * witness
    flags = []
    lo = hi = 0
    for i in range(len(ts)):
        while lo < i and ts[i] - ts[lo] >= delta_t:
            lo += 1
        hi = max(hi, i + 1)
        while hi < len(ts) and ts[hi] - ts[i] < delta_t:
            hi += 1
        left = _far_scan(xs, ys, boxes, xs[i], ys[i], w2, i - 1, lo, -1)
        right = _far_scan(xs, ys, boxes, xs[i], ys[i], w2, i + 1, hi - 1, 1)
        flags.append(
            not stay[i] and left >= 0 and right >= 0 and ts[right] - ts[left] <= delta_t
        )
    return flags


def kernel_at_reach(reach, *args):
    """label_kernel with the travel pass's short reach set to ``reach``."""
    saved = sds.SHORT_REACH
    sds.SHORT_REACH = reach
    try:
        return label_kernel(*args)
    finally:
        sds.SHORT_REACH = saved


#: one axis of a run's step: small ones that make stays, large ones that
#: witness, and integer ones that put two records exactly 800 m apart
_step = st.one_of(
    st.floats(-20.0, 20.0),
    st.floats(-1500.0, 1500.0),
    st.sampled_from([0.0, 480.0, -480.0, 640.0, -640.0, 800.0, -800.0]),
)

#: a run of records: how many, the gap before each, and the planar step to
#: each; 1 s runs longer than any short reach tested, gaps of exactly
#: floor(delta_t) and one more for delta_t of 600, 600.5 and 1800, and over
#: delta_t
_run = st.tuples(
    st.integers(1, 40),
    st.one_of(
        st.just(1),
        st.sampled_from([300, 600, 601, 1800, 1801, 5000]),
        st.integers(1, 700),
    ),
    _step,
    _step,
)


def run_arrays(runs):
    """Planar x, y and int64 times of a list of ``_run`` draws."""
    gaps, dx, dy = (
        np.array([run[k] for run in runs for _ in range(run[0])]) for k in (1, 2, 3)
    )
    gaps[0] = 0
    return np.cumsum(dx), np.cumsum(dy), np.cumsum(gaps).astype(np.int64)


class TestShortReach:
    """The travel pass's vector sweep over the nearest offsets, then scans
    past it, against the scans alone."""

    @settings(deadline=None, max_examples=150)
    @given(
        runs=st.lists(_run, min_size=1, max_size=8),
        delta_t=st.sampled_from([600.5, 600.0, 1800.0]),
        # below the stay escape (800/3) a skipped stay record could have
        # witnesses
        witness=st.sampled_from([200.0, 400.0, 800.0]),
    )
    # a stay whose middle record has witnesses, which only the skip unflags
    @example(
        runs=[(1, 1, 250.0, 0.0), (1, 300, -250.0, 0.0), (1, 300, 250.0, 0.0)],
        delta_t=600.0,
        witness=200.0,
    )
    def test_any_reach_equals_scans_alone(self, runs, delta_t, witness):
        x, y, t = run_arrays(runs)
        n = len(t)
        for reach in (0, 1, 2, sds.SHORT_REACH, BLOCK, n + 1):
            stay, travel = kernel_at_reach(reach, x, y, t, delta_t, 800.0 / 3.0, witness)
            assert travel.tolist() == scan_travel(x, y, t, stay, witness, delta_t), reach

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_first_rows_equals_argmax(self, n):
        # the travel pass's hit rows, built as it builds them: one row per
        # offset, an all-True row last, read as the contiguous slice and as
        # the strided view keyed by the earlier record
        rng = np.random.default_rng(n)
        # 255 and 256 rows: the count's type widens past uint8 there
        for reach in (0, 1, 2, 8, 16, 254, 255, n + 1):
            width = n + reach + 1
            for density in (0.05, 0.5, 0.95):
                hits = rng.random((reach + 1, width)) < density
                hits[reach] = True
                ahead = as_strided(hits.reshape(-1)[1:], (reach + 1, n), (width + 1, 1))
                for rows in (hits[:, :n], ahead):
                    got = _first_rows(rows)
                    assert got.tolist() == rows.argmax(axis=0).tolist(), reach

    @pytest.mark.parametrize("reach", [0, BLOCK])
    def test_time_tests_are_exact_on_large_integers(self, reach):
        # int64 differences near 2**60 that float64 would round onto
        # delta_t: 2**60 - 1 and 2**60 - 2 are within reach, and witnesses
        # 2**60 + 1 apart do not close a window
        x = np.array([0.0, 1000.0, 2000.0, 3000.0])
        y = np.zeros(4)
        for t, want in (
            ([0, 2**60 - 1, 2**60], [False, True, False]),
            ([0, 1, 2**60 - 1, 2**61], [False, True, False, False]),
            ([0, 2**59 + 1, 2**60 + 1], [False, False, False]),
        ):
            n = len(t)
            _, travel = kernel_at_reach(
                reach, x[:n], y[:n], np.array(t, dtype=np.int64), 2.0**60, 800.0 / 3.0, 800.0
            )
            assert travel.tolist() == want


class TestLockstep:
    """The travel pass's lockstep scans, which records whose delta_t reach
    holds more than a superblock take, against the scalar scan, on draws
    of TestScans' integer points, where distances tie the radius at box
    corners."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(300, 3000),
        r2=st.sampled_from([25.0, 32.0, 33.0, 36.0]),
    )
    def test_match_scalar_scans(self, seed, n, r2):
        rng = np.random.default_rng(seed)
        x, y = TestScans().trajectory(rng, n)
        xs, ys = x.tolist(), y.tolist()
        boxes = _block_boxes(x, y)
        blocks, supers = boxes[8:]
        queries = 200
        cx = rng.integers(-TestScans.NEAR, TestScans.NEAR + 1, queries).astype(float)
        cy = rng.integers(-TestScans.NEAR, TestScans.NEAR + 1, queries).astype(float)
        # ranges in either order, so that some are empty, and fronts one
        # past either end of the records, as the travel pass passes them;
        # both scans take the same front, end and step
        for front, end, step in (
            (rng.integers(-1, n, queries), rng.integers(0, n, queries), -1),
            (rng.integers(0, n + 1, queries), rng.integers(0, n + 1, queries) - 1, 1),
        ):
            got = _far_lockstep(x, y, supers, blocks, cx, cy, r2, front, end, step)
            want = [
                _far_scan(xs, ys, boxes, px, py, r2, f, e, step)
                for px, py, f, e in zip(*(v.tolist() for v in (cx, cy, front, end)))
            ]
            assert got.tolist() == want

    @settings(deadline=None, max_examples=12)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(300, 3000),
        delta_t=st.sampled_from([600.0, 600.5, 1800.0, 7200.0]),
        # at 5 the near records witness each other now and then; at 6
        # only the far ones witness
        witness=st.sampled_from([5.0, 6.0]),
        escape=st.sampled_from([None, 1.5]),
    )
    def test_travel_flags_equal_scans_alone(self, seed, n, delta_t, witness, escape):
        x, y = TestScans().trajectory(np.random.default_rng(seed), n)
        t = np.arange(n, dtype=np.int64)
        stay, travel = label_kernel(x, y, t, delta_t, escape, witness)
        assert travel.tolist() == scan_travel(x, y, t, stay, witness, delta_t)

    def test_reach_is_exact_where_int64_sums_wrap(self):
        # 600 one-second records at 0 and 600 more at 2**62: at delta_t
        # 2**62, t[700] + (delta_t - 1) passes 2**63; records 600 to 1198
        # have witnesses 599 and 1199, exactly delta_t apart
        t = np.concatenate([np.arange(600), 2**62 + np.arange(600)]).astype(np.int64)
        x = np.zeros(len(t))
        x[599], x[1199] = -1000.0, 1000.0
        y = np.zeros(len(t))
        stay, travel = label_kernel(x, y, t, 2.0**62, 800.0 / 3.0, 800.0)
        assert travel.tolist() == scan_travel(x, y, t, stay, 800.0, 2.0**62)
        assert travel[600:1199].all()

    def test_joined_trajectories_equal_each_alone(self, monkeypatch):
        # 1 Hz paths joined back to back, so that superblocks straddle the
        # joins, then sparse walks, single records and empty trajectories:
        # the travel pass alone flags each as its own kernel call does, in
        # one call for them all
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return label_kernel(*args)

        monkeypatch.setattr(sds, "label_kernel", counted)
        rng = np.random.default_rng(604)
        trajs = []
        for kind in ONE_HZ_KINDS:
            n = int(rng.integers(SUPER + 1, 1500))
            x, y = one_hz_path(rng, kind, n, PARAMS.delta_s)
            trajs.append((x, y, 10**6 + np.arange(n, dtype=np.int64)))
        for max_len in (40, 40, 1, 1):
            traj = random_trajectory(rng, max_len)
            trajs.append((*planar(traj), traj.times))
        empty = (np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))
        trajs.insert(2, empty)
        trajs.append(empty)
        x, y, t = (np.concatenate(v) for v in zip(*trajs))
        sizes = [len(v[2]) for v in trajs]
        for delta_t in (1800.0, 600.5):
            for witness in (PARAMS.delta_s, PARAMS.delta_s / 2.0):
                calls.clear()
                _, travel = sds._joined_flags(x, y, t, sizes, delta_t, None, witness)
                assert calls == [len(t)]
                want = [label_kernel(*v, delta_t, None, witness)[1] for v in trajs]
                assert travel.tolist() == np.concatenate(want).tolist()
                assert travel.any()


class TestStaySkip:
    """The travel pass's skip of stay records, against the travel pass alone
    (escape=None), which the recall pools run."""

    @settings(deadline=None, max_examples=150)
    @given(
        runs=st.lists(_run, min_size=1, max_size=8),
        delta_t=st.sampled_from([600.5, 600.0, 1800.0]),
        witness=st.sampled_from([200.0, 400.0, 800.0]),
    )
    def test_skip_at_escape_up_to_witness_changes_no_flag(
        self, runs, delta_t, witness
    ):
        x, y, t = run_arrays(runs)
        stay, alone = label_kernel(x, y, t, delta_t, None, witness)
        assert not stay.any()
        for escape in (witness / 3.0, witness / 2.0, 800.0 / 3.0, witness):
            if escape > witness:
                continue
            _, travel = label_kernel(x, y, t, delta_t, escape, witness)
            assert travel.tolist() == alone.tolist(), escape


class TestStayRuns:
    """The stay pass's runs, cut and flushed in whole-array steps, against
    one record loop over the whole trajectory."""

    @settings(deadline=None, max_examples=200)
    @given(
        runs=st.lists(_run, min_size=1, max_size=8),
        delta_t=st.sampled_from([1800.0, 600.5]),
        escape=st.sampled_from([800.0 / 3.0, 800.0]),
        integer=st.booleans(),
    )
    # a run of steps 800 m long, each one exactly at the escape radius
    @example(
        runs=[(1, 1, 0.0, 0.0), (4, 600, 480.0, 640.0)],
        delta_t=600.5,
        escape=800.0,
        integer=True,
    )
    # a run whose box diagonal is exactly the escape radius: its last record
    # escapes its first, so it is two windows, neither spanning delta_t
    @example(
        runs=[(1, 1, 0.0, 0.0), (1, 1000, 480.0, 0.0), (1, 1000, 0.0, 640.0)],
        delta_t=1800.0,
        escape=800.0,
        integer=True,
    )
    def test_matches_reference_loop(self, runs, delta_t, escape, integer):
        x, y, t = run_arrays(runs)
        if integer:
            # integer points, where the steps of 800 m tie the radius
            x, y = np.round(x), np.round(y)
        stay, _ = label_kernel(x, y, t, delta_t, escape, None)
        want, heads = reference_stay_pass(x, y, t, escape, delta_t)
        assert stay.tolist() == want
        assert stay_heads(x, y, t, escape, delta_t).tolist() == heads

    def test_heads_match_reference_loop(self, rng):
        # random, dense and c6-schedule draws, at the labeler's escape radius
        # and at the leave-one-out check's
        trajs = [random_trajectory(rng) for _ in range(60)]
        trajs += list(dense_trajectories(rng, 10, 2))
        trajs += list(schedule_trajectories(8))
        for traj in trajs:
            x, y = planar(traj)
            for escape in (PARAMS.delta_s / 3.0, PARAMS.delta_s):
                _, heads = reference_stay_pass(x, y, traj.times, escape, PARAMS.delta_t)
                got = stay_heads(x, y, traj.times, escape, PARAMS.delta_t)
                assert got.tolist() == heads

    def test_time_tests_are_exact_on_large_integers(self):
        # times past 2**53 and delta_t = 2**62: a run ending at an escape
        # that spans 2**62 - 1 s, which float64 rounds up to delta_t, is no
        # stay; runs spanning 2**62 s are, also at the trajectory's end; a
        # gap of 2**62 + 1 s, which float64 rounds down to delta_t, cuts
        b = 2**60
        x = np.array([0.0, 10.0, 20.0, 1000.0])
        y = np.zeros(4)
        for t, delta_t, want in (
            ([b, b + 2**61, b + 2**62 - 1, b + 2**62], 2.0**62, [False] * 4),
            ([b, b + 2**61, b + 2**62, b + 2**62 + 1], 2.0**62, [True] * 3 + [False]),
            ([b, b + 2**61, b + 2**62], 2.0**62, [True] * 3),
            ([b, b + 1, b + 2**62 + 2], 2.0**62, [False] * 3),
            # longer than the whole span: no gap cuts and nothing flushes
            ([b, b + 2**61, b + 2**62, b + 2**62 + 1], 2.0**63, [False] * 4),
            ([b, b + 2**61, b + 2**62, b + 2**62 + 1], 1e30, [False] * 4),
        ):
            t = np.array(t, dtype=np.int64)
            args = x[: len(t)], y[: len(t)], t
            stay, _ = label_kernel(*args, delta_t, 800.0 / 3.0, None)
            assert stay.tolist() == want, (t, delta_t)
            flags, heads = reference_stay_pass(*args, 800.0 / 3.0, delta_t)
            assert flags == want
            assert stay_heads(*args, 800.0 / 3.0, delta_t).tolist() == heads

    def test_window_invariant_on_sparse_trajectories(self):
        # power-law gaps as in the c6 corpus, where nearly every record is
        # admitted by a run's box rather than record by record
        escape = PARAMS.delta_s / 3.0
        for traj in schedule_trajectories(20):
            x, y = planar(traj)
            heads = stay_heads(x, y, traj.times, escape, PARAMS.delta_t)
            assert window_invariant(x, y, traj.times, heads, escape, PARAMS.delta_t)


def one_hz_times(rng, n, delta_t):
    """``n`` times one second apart, with up to two gaps just over delta_t
    that cut the path into runs the stay pass takes separately."""
    gaps = np.ones(n, dtype=np.int64)
    gaps[0] = 0
    gaps[rng.integers(1, n, int(rng.integers(0, 3)))] = math.floor(delta_t) + 1
    return np.cumsum(gaps)


class TestStayLockstep:
    """Loose runs of more than SUPER records, whose heads _stay_lockstep
    finds in whole-array rounds, against one record loop."""

    @staticmethod
    def runs_counted(monkeypatch):
        """The number of long loose runs _stay_lockstep is given, per call."""
        calls = []
        lockstep = sds._stay_lockstep

        def counted(x, y, boxes, esc2, starts, ends):
            calls.append(len(starts))
            return lockstep(x, y, boxes, esc2, starts, ends)

        monkeypatch.setattr(sds, "_stay_lockstep", counted)
        return calls

    @pytest.mark.parametrize("kind", ONE_HZ_KINDS)
    def test_heads_and_flags_match_reference_loop(self, kind, monkeypatch):
        calls = self.runs_counted(monkeypatch)
        rng = np.random.default_rng((515, ONE_HZ_KINDS.index(kind)))
        for k in range(10):
            n = int(rng.integers(SUPER + 1, 2500))
            delta_t = (1800.0, 600.5)[k % 2]
            # shaped at either radius, labeled at both
            x, y = one_hz_path(rng, kind, n, (PARAMS.delta_s / 3.0, PARAMS.delta_s)[k // 2 % 2])
            t = one_hz_times(rng, n, delta_t)
            for escape in (PARAMS.delta_s / 3.0, PARAMS.delta_s):
                flags, heads = reference_stay_pass(x, y, t, escape, delta_t)
                assert stay_heads(x, y, t, escape, delta_t).tolist() == heads
                stay, _ = label_kernel(x, y, t, delta_t, escape, None)
                assert stay.tolist() == flags
        assert len(calls) >= 10

    def test_bound_that_reaches_top_still_tests_that_record(self, monkeypatch):
        # a dwell at the origin with three records off it: 302 lies at the
        # radius from the dwell and 303 at the radius from 550. In one
        # round the cursors from 304 on find 302, so the bound becomes 303,
        # while the block holding 550 clears the window [304, 558] of its
        # last records; its highest record not ruled out is then 303, the
        # bound itself, which still has to be tested
        calls = self.runs_counted(monkeypatch)
        y = np.zeros(600)
        y[[301, 302, 303, 550]] = [400.0, 800.0, 480.0, -320.0]
        x, t = np.zeros(600), np.arange(600)
        heads = stay_heads(x, y, t, PARAMS.delta_s, PARAMS.delta_t)
        assert heads.tolist() == reference_stay_pass(x, y, t, PARAMS.delta_s, PARAMS.delta_t)[1]
        assert heads[549:551].tolist() == [303, 304]
        assert calls == [1]

    def test_joined_trajectories_match_reference_loop(self, monkeypatch):
        # 1 Hz paths joined back to back, so that superblocks straddle the
        # joins, all in one kernel call and so one round of lockstep
        calls = self.runs_counted(monkeypatch)
        rng = np.random.default_rng(516)
        for delta_t in (1800.0, 600.5):
            xs, ys, ts = [], [], []
            for kind in ONE_HZ_KINDS * 2:
                n = int(rng.integers(SUPER + 1, 1500))
                x, y = one_hz_path(rng, kind, n, PARAMS.delta_s / 3.0)
                xs.append(x)
                ys.append(y)
                ts.append(one_hz_times(rng, n, delta_t))
            sizes = [len(t) for t in ts]
            x, y, t = np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)
            for escape in (PARAMS.delta_s / 3.0, PARAMS.delta_s):
                calls.clear()
                stay, _ = sds._joined_flags(x, y, t, sizes, delta_t, escape, None)
                want = sum(
                    (reference_stay_pass(*v, escape, delta_t)[0] for v in zip(xs, ys, ts)),
                    [],
                )
                assert stay.tolist() == want
                assert len(calls) == 1 and calls[0] > 1


def schedule_trajectories(count):
    """``count`` walks of 1,000 records each, observed at power-law gaps as
    in the c6 corpus."""
    for d in range(count):
        rng = np.random.default_rng((14, d))
        times = synth_schedule(rng, 1000)
        walk = CtrwConfig(duration=float(times[-1] + 1), seed=int(rng.integers(0, 2**62)))
        yield observe(generate_ctrw(walk), times)


class TestStayFlagsAt:
    def test_matches_dense_membership_at_any_threshold(self, rng):
        for spatial in (PARAMS.delta_s / 3.0, PARAMS.delta_s / 2.0, PARAMS.delta_s):
            for _ in range(25):
                traj = random_trajectory(rng, max_len=16)
                flags = stay_flags_at(traj, PARAMS, spatial, ref_lat=0.0)
                member = brute_dense_member(traj, spatial, PARAMS.delta_t)
                assert (flags == member).all()

    def test_monotone_in_threshold(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng)
            narrow = stay_flags_at(traj, PARAMS, PARAMS.delta_s / 3.0, ref_lat=0.0)
            wide = stay_flags_at(traj, PARAMS, PARAMS.delta_s, ref_lat=0.0)
            assert (narrow <= wide).all()


class TestTravelFlagsAt:
    def test_matches_literal_scan_at_half_threshold(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng, max_len=16)
            flags = travel_flags_at(traj, PARAMS, PARAMS.delta_s / 2.0, ref_lat=0.0)
            brute = np.array(
                [
                    brute_travel_witness(traj, i, PARAMS.delta_s / 2.0, PARAMS.delta_t)
                    for i in range(len(traj))
                ]
            )
            assert (flags == brute).all()


class TestRecallBounds:
    def test_tight_cluster_bound_one(self):
        traj = traj_from_meters([0, 500, 1000, 2000], [0.0, 20.0, 40.0, 10.0])
        bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0)
        assert bounds.stay_bound == 1.0

    def test_no_detectable_stay_vacuous_one(self):
        bounds = recall_lower_bounds(three_record_travel(), PARAMS, ref_lat=0.0)
        assert bounds.stay_bound == 1.0
        assert bounds.travel_bound == 1.0

    def test_medium_cluster_detected_only_at_full_threshold(self):
        # diameter 300 m: inside delta_s but every window breaks at delta_s/3
        traj = traj_from_meters([0, 600, 1200, 2400], [0.0, 300.0, 0.0, 300.0])
        bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0)
        assert bounds.stay_bound == 0.0

    def test_bounds_lie_in_unit_interval(self, rng):
        for _ in range(40):
            traj = random_trajectory(rng)
            bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0)
            assert 0.0 <= bounds.stay_bound <= 1.0
            assert 0.0 <= bounds.travel_bound <= 1.0

    def test_matches_literal_window_and_witness_ratios(self, rng):
        # stay: dense members at the escape radius (delta_s/3) over dense
        # members at the dense radius (delta_s); travel: witnesses at the
        # witness radius (delta_s) over witnesses at the travel pool's
        # (delta_s/2), all from the rule the labeler reads
        def ratio(num, den):
            return 1.0 if den.sum() == 0 else num.sum() / den.sum()

        r, d_t = radii(PARAMS), PARAMS.delta_t
        for _ in range(60):
            traj = random_trajectory(rng, max_len=14)
            bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0)
            stay = ratio(
                brute_dense_member(traj, r.escape, d_t),
                brute_dense_member(traj, r.dense, d_t),
            )
            witness = [
                np.array([brute_travel_witness(traj, i, w, d_t) for i in range(len(traj))])
                for w in (r.witness, r.travel_pool)
            ]
            assert bounds.stay_bound == stay
            assert bounds.travel_bound == ratio(*witness)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecallBounds(stay_bound=1.5, travel_bound=0.0)


class TestLabeledTrajectory:
    def test_length_must_match(self):
        traj = three_record_travel()
        with pytest.raises(ValueError):
            LabeledTrajectory(traj, np.zeros(2, dtype=np.int8))
