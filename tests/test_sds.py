"""Sliding-window stay/travel labeling on single trajectories."""
import math

import numpy as np
import pytest

from helpers import (
    brute_dense_member,
    brute_travel_witness,
    dense_trajectory,
    minutes,
    random_trajectory,
    segment_bounds,
    traj_from_meters,
)
from sparsemob.core import METERS_PER_DEGREE, MobilityParams, Trajectory
from sparsemob.oracle import dense_stay_membership, exact_label, travel_condition_all
from sparsemob.sds import (
    BLOCK,
    LabeledTrajectory,
    RecallBounds,
    label_kernel,
    recall_lower_bounds,
    sds_label,
    stay_flags_at,
    travel_flags_at,
)

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)


def stay_cluster_plus_escape():
    """Four records within 100 m over 40 minutes, then a fifth 1 km away."""
    return traj_from_meters(
        minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0]
    )


def three_record_travel():
    """Three records 1 km apart at 10 minute spacing."""
    return traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0])


def kernel(traj, witness=PARAMS.delta_s, **kw):
    """label_kernel at the labeler's thresholds on an equator-built fixture."""
    x = traj.lons * METERS_PER_DEGREE
    y = traj.lats * METERS_PER_DEGREE
    return label_kernel(
        x, y, traj.times, PARAMS.delta_t, PARAMS.delta_s / 3.0, witness, **kw
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
        assert not kernel(traj, witness=None, tail_flush=False)[0].any()

    def test_window_invariant_on_admission(self, rng):
        # whenever the scan admits a record without an escape, every pair in
        # the window must still be closer than the escape distance
        for _ in range(40):
            traj = random_trajectory(rng)
            x = traj.lons * METERS_PER_DEGREE
            y = traj.lats * METERS_PER_DEGREE
            escape = PARAMS.delta_s / 3.0
            segments = segment_bounds(traj.times, PARAMS.delta_t)

            def check(head, cursor):
                # whole-trajectory indices: the window lies in one segment
                assert any(s <= head < cursor < e for s, e in segments)
                for a in range(head, cursor + 1):
                    for b in range(a + 1, cursor + 1):
                        d = math.hypot(x[a] - x[b], y[a] - y[b])
                        assert d < escape

            label_kernel(x, y, traj.times, PARAMS.delta_t, escape, None, on_admit=check)


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

    def test_empty_trajectory(self):
        empty = Trajectory("d", np.array([], dtype=np.int64), np.array([]), np.array([]))
        assert sds_label(empty, PARAMS, ref_lat=0.0).letters() == []


class TestBlockSkip:
    """Dense trajectories, where the scans step over whole blocks of records,
    against the quadratic oracle."""

    def test_flags_match_oracle_on_dense_trajectories(self, rng):
        for _ in range(40):
            traj = dense_trajectory(rng, BLOCK)
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
        for _ in range(20):
            traj = dense_trajectory(rng, BLOCK)
            x = traj.lons * METERS_PER_DEGREE
            y = traj.lats * METERS_PER_DEGREE
            dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
            admits = []

            def check(head, cursor):
                assert 0 <= head < cursor < len(traj)
                assert dist[head : cursor + 1, head : cursor + 1].max() < escape
                admits.append(cursor)

            label_kernel(x, y, traj.times, PARAMS.delta_t, escape, None, on_admit=check)
            assert admits


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
            for tail_flush in (True, False):
                bounds = recall_lower_bounds(
                    traj, PARAMS, ref_lat=0.0, tail_flush=tail_flush
                )
                assert 0.0 <= bounds.stay_bound <= 1.0
                assert 0.0 <= bounds.travel_bound <= 1.0

    def test_matches_literal_window_and_witness_ratios(self, rng):
        # stay: dense members at delta_s/3 over dense members at delta_s;
        # travel: witnesses at delta_s over witnesses at delta_s/2
        def ratio(num, den):
            return 1.0 if den.sum() == 0 else num.sum() / den.sum()

        for _ in range(60):
            traj = random_trajectory(rng, max_len=14)
            bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0)
            d_s, d_t = PARAMS.delta_s, PARAMS.delta_t
            stay = ratio(
                brute_dense_member(traj, d_s / 3.0, d_t),
                brute_dense_member(traj, d_s, d_t),
            )
            witness = [
                np.array([brute_travel_witness(traj, i, w, d_t) for i in range(len(traj))])
                for w in (d_s, d_s / 2.0)
            ]
            assert bounds.stay_bound == stay
            assert bounds.travel_bound == ratio(*witness)

    def test_tail_flush_off_stay_denominator_is_dense_membership(self):
        # the first dwell escapes at delta_s/3 but never at delta_s; without
        # the tail flush the delta_s pass would drop it from the denominator
        traj = traj_from_meters(
            [0, 600, 1200, 1800, 2400, 10000, 11800, 12000],
            [0, 0, 0, 0, 400, 0, 0, 5000],
        )
        bounds = recall_lower_bounds(traj, PARAMS, ref_lat=0.0, tail_flush=False)
        assert bounds.stay_bound == 6 / 7
        assert bounds.travel_bound == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RecallBounds(stay_bound=1.5, travel_bound=0.0)


class TestLabeledTrajectory:
    def test_length_must_match(self):
        traj = three_record_travel()
        with pytest.raises(ValueError):
            LabeledTrajectory(traj, np.zeros(2, dtype=np.int8))
