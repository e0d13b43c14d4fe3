"""Domain types, distances, segmentation, and sparsity metrics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    minutes,
    planar_distance,
    random_trajectory,
    segment_bounds,
    traj_from_meters,
)
from sparsemob.core import (
    _CODE_BY_LETTER,
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    METERS_PER_DEGREE,
    MetricUndefinedError,
    MobilityParams,
    Trajectory,
    codes_to_letters,
    global_sparsity,
    local_coverage,
    planar,
    project_to_meters,
)


class TestPlanarDistance:
    def test_identical_points_zero(self):
        p = (10.0, 20.0)
        assert planar_distance(p, p, ref_lat=20.0) == 0.0

    def test_one_millidegree_latitude(self):
        a = (116.0, 39.000)
        b = (116.0, 39.001)
        assert planar_distance(a, b, ref_lat=39.0) == pytest.approx(111.19, abs=0.01)

    def test_one_millidegree_longitude_scaled_by_cos(self):
        a = (116.000, 39.79)
        b = (116.001, 39.79)
        assert planar_distance(a, b, ref_lat=39.79) == pytest.approx(85.45, abs=0.05)

    def test_symmetry(self):
        a = (116.1, 39.8)
        b = (116.4, 39.5)
        assert planar_distance(a, b, 39.7) == planar_distance(b, a, 39.7)

    @settings(deadline=None, max_examples=200)
    @given(
        coords=st.lists(
            st.tuples(
                st.floats(min_value=116.0, max_value=117.0),
                st.floats(min_value=39.0, max_value=40.0),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_triangle_inequality(self, coords):
        a, b, c = coords
        ab = planar_distance(a, b, 39.5)
        bc = planar_distance(b, c, 39.5)
        ac = planar_distance(a, c, 39.5)
        assert ac <= ab + bc + 1e-9 * max(ab, bc, ac, 1.0)

    def test_projection_matches_distance(self, rng):
        lons = 116.0 + rng.random(50)
        lats = 39.0 + rng.random(50)
        x, y = project_to_meters(lons, lats, ref_lat=39.5)
        for i in range(0, 50, 7):
            for j in range(1, 50, 11):
                d = planar_distance((lons[i], lats[i]), (lons[j], lats[j]), 39.5)
                assert math.hypot(x[i] - x[j], y[i] - y[j]) == pytest.approx(d, rel=1e-12)

    def test_projection_wraps_longitudes_across_the_antimeridian(self):
        # 179.9999 and -179.9999 are 0.0002 deg apart the short way round
        lons = np.array([179.9999, -179.9999, 179.9999])
        lats = np.full(3, 10.0)
        x, y = project_to_meters(lons, lats, ref_lat=10.0)
        gap = 0.0002 * METERS_PER_DEGREE * math.cos(math.radians(10.0))
        assert abs(x[1] - x[0]) == pytest.approx(gap, rel=1e-6)
        assert x[2] == x[0]
        east = project_to_meters(-lons, lats, ref_lat=10.0)[0]
        assert abs(east[1] - east[0]) == pytest.approx(gap, rel=1e-6)

    def test_projection_unchanged_off_the_antimeridian(self, rng):
        lons = 116.0 + rng.random(50)
        lats = 39.0 + rng.random(50)
        x, _ = project_to_meters(lons, lats, ref_lat=39.5)
        scale = METERS_PER_DEGREE * math.cos(math.radians(39.5))
        assert np.array_equal(x, lons * scale)
        assert [a.size for a in project_to_meters(np.array([]), np.array([]), 0.0)] == [0, 0]

    def test_planar_projects_about_the_first_record_by_default(self):
        traj = Trajectory("d", [0, 60], [116.0, 116.01], [39.5, 41.0])
        for ref_lat, want in ((None, 39.5), (10.0, 10.0)):
            got = planar(traj, ref_lat)
            expected = project_to_meters(traj.lons, traj.lats, want)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_planar_accepts_an_empty_trajectory(self):
        empty = Trajectory("d", [], [], [])
        assert [a.size for a in planar(empty)] == [0, 0]

    def test_planar_distance_takes_the_short_way_round(self):
        a, b = (179.9999, 10.0), (-179.9999, 10.0)
        d = planar_distance(a, b, 10.0)
        assert d == pytest.approx(0.0002 * METERS_PER_DEGREE * math.cos(math.radians(10.0)))


class TestTrajectory:
    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            traj_from_meters([0, 100, 50], [0.0, 1.0, 2.0])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            traj_from_meters([0, 100, 100], [0.0, 1.0, 2.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory("d", np.array([0, 1]), np.array([0.0]), np.array([0.0]))

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValueError, match="out of range"):
            Trajectory("d", np.array([0]), np.array([181.0]), np.array([0.0]))
        # five co-located records with one NaN would otherwise come out SSSSS
        times = np.arange(5) * 600
        for bad in (math.nan, math.inf, -math.inf):
            coords = np.zeros(5)
            with_bad = coords.copy()
            with_bad[2] = bad
            with pytest.raises(ValueError, match="not finite"):
                Trajectory("d", times, with_bad, coords)
            with pytest.raises(ValueError, match="not finite"):
                Trajectory("d", times, coords, with_bad)

    def test_empty_allowed(self):
        t = Trajectory("d", np.array([], dtype=np.int64), np.array([]), np.array([]))
        assert len(t) == 0

    def test_arrays_are_immutable(self):
        t = traj_from_meters([0, 60], [0.0, 10.0])
        with pytest.raises(ValueError):
            t.times[0] = 5


class TestLabels:
    def test_letter_round_trip(self):
        codes = np.array([LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED], dtype=np.int8)
        assert codes_to_letters(codes) == ["S", "T", "U"]
        assert [_CODE_BY_LETTER[s] for s in "STU"] == codes.tolist()


class TestMobilityParams:
    def test_defaults(self):
        p = MobilityParams()
        assert p.delta_s == 800.0
        assert p.delta_t == 1800.0

    @pytest.mark.parametrize("kw", [{"delta_s": 0.0}, {"delta_s": -1.0}, {"delta_t": 0.0}])
    def test_nonpositive_rejected(self, kw):
        with pytest.raises(ValueError):
            MobilityParams(**kw)


def segment_lengths(times, delta_t):
    return [e - s for s, e in segment_bounds(np.asarray(times), delta_t)]


class TestDivide:
    """Slicing at time gaps through segment_bounds."""

    def test_cut_at_large_gap(self):
        # gaps 10, 40, 10 minutes against a 30 minute threshold
        assert segment_lengths(minutes(0, 10, 50, 60), 1800.0) == [2, 2]

    def test_no_gap_no_cut(self):
        assert segment_lengths(minutes(0, 10, 20, 30), 1800.0) == [4]

    def test_single_record(self):
        assert segment_lengths([0], 1800.0) == [1]

    def test_gap_exactly_threshold_not_cut(self):
        assert segment_lengths([0, 1800], 1800.0) == [2]

    def test_partition_property(self, rng):
        for _ in range(50):
            traj = random_trajectory(rng)
            delta_t = float(rng.integers(100, 5000))
            bounds = segment_bounds(traj.times, delta_t)
            gaps = np.diff(traj.times)
            for s, e in bounds:
                assert (gaps[s : e - 1] <= delta_t).all()
                if s > 0:
                    assert gaps[s - 1] > delta_t
            flat = [i for s, e in bounds for i in range(s, e)]
            assert flat == list(range(len(traj)))

    def test_segment_bounds_empty(self):
        assert segment_bounds(np.array([], dtype=np.int64), 10.0) == []


class TestGlobalSparsity:
    def test_uniform_gaps(self):
        assert global_sparsity(traj_from_meters(minutes(0, 10, 20), [0.0] * 3)) == 600.0

    def test_single_gap(self):
        assert global_sparsity(traj_from_meters(minutes(0, 30), [0.0] * 2)) == 1800.0

    def test_mixed_gaps(self):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5)
        assert global_sparsity(traj) == 3750.0

    def test_undefined_below_two_records(self):
        with pytest.raises(MetricUndefinedError):
            global_sparsity(traj_from_meters([0], [0.0]))

    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(min_value=1, max_value=100))
    def test_scales_with_time_dilation(self, k):
        base = [0, 600, 7800, 9000]
        a = global_sparsity(traj_from_meters(base, [0.0] * 4))
        b = global_sparsity(traj_from_meters([t * k for t in base], [0.0] * 4))
        assert b == pytest.approx(k * a, rel=1e-12)


class TestLocalCoverage:
    def test_one_isolated_interior_record(self):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5)
        assert local_coverage(traj, 1800.0) == pytest.approx(0.8)

    def test_all_dense(self):
        traj = traj_from_meters(minutes(0, 10, 20, 30), [0.0] * 4)
        assert local_coverage(traj, 1800.0) == 1.0

    def test_middle_of_three_isolated(self):
        traj = traj_from_meters(minutes(0, 60, 120), [0.0] * 3)
        assert local_coverage(traj, 1800.0) == pytest.approx(2 / 3)

    def test_endpoints_never_isolated(self):
        # both gaps huge: only the interior record can be isolated
        traj = traj_from_meters([0, 100000, 200000], [0.0] * 3)
        assert local_coverage(traj, 1800.0) == pytest.approx(2 / 3)

    def test_empty_undefined(self):
        empty = Trajectory("d", np.array([], dtype=np.int64), np.array([]), np.array([]))
        with pytest.raises(MetricUndefinedError):
            local_coverage(empty, 1800.0)

    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(min_value=1, max_value=50))
    def test_invariant_under_joint_dilation(self, k):
        # index 2 is isolated (gaps 7200 and 22200), so coverage is 0.8
        base = [0, 600, 7800, 30000, 31000]
        a = local_coverage(traj_from_meters(base, [0.0] * 5), 1800.0)
        assert a == pytest.approx(0.8)
        b = local_coverage(traj_from_meters([t * k for t in base], [0.0] * 5), 1800.0 * k)
        assert a == b
