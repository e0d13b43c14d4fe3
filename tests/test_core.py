"""Domain types, distances, segmentation, and sparsity metrics."""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    SMALLEST_DELTA_S,
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
    MobilityParams,
    LabeledTrajectory,
    Trajectory,
    planar,
    project_runs,
    radii,
)
from sparsemob.evaluate import coverages, mean_gaps


def at(lons, lats) -> Trajectory:
    """A trajectory of the given coordinates, one record a second."""
    return Trajectory("d", np.arange(len(lons)), lons, lats)


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
        x, y = planar(at(lons, lats), ref_lat=39.5)
        for i in range(0, 50, 7):
            for j in range(1, 50, 11):
                d = planar_distance((lons[i], lats[i]), (lons[j], lats[j]), 39.5)
                assert math.hypot(x[i] - x[j], y[i] - y[j]) == pytest.approx(d, rel=1e-12)

    def test_projection_wraps_longitudes_across_the_antimeridian(self):
        # 179.9999 and -179.9999 are 0.0002 deg apart the short way round
        lons = np.array([179.9999, -179.9999, 179.9999])
        lats = np.full(3, 10.0)
        x, y = planar(at(lons, lats), ref_lat=10.0)
        gap = 0.0002 * METERS_PER_DEGREE * math.cos(math.radians(10.0))
        assert abs(x[1] - x[0]) == pytest.approx(gap, rel=1e-6)
        assert x[2] == x[0]
        east = planar(at(-lons, lats), ref_lat=10.0)[0]
        assert abs(east[1] - east[0]) == pytest.approx(gap, rel=1e-6)

    def test_projection_unchanged_off_the_antimeridian(self, rng):
        lons = 116.0 + rng.random(50)
        lats = 39.0 + rng.random(50)
        x, _ = planar(at(lons, lats), ref_lat=39.5)
        scale = METERS_PER_DEGREE * math.cos(math.radians(39.5))
        assert np.array_equal(x, lons * scale)

    def test_planar_projects_about_the_first_record_by_default(self):
        traj = Trajectory("d", [0, 60], [116.0, 116.01], [39.5, 41.0])
        for ref_lat, want in ((None, 39.5), (10.0, 10.0)):
            got = planar(traj, ref_lat)
            expected = planar(traj, want)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        scale = METERS_PER_DEGREE * math.cos(math.radians(39.5))
        assert planar(traj)[0].tolist() == [116.0 * scale, 116.01 * scale]

    def test_planar_accepts_an_empty_trajectory(self):
        empty = Trajectory("d", [], [], [])
        assert [a.size for a in planar(empty)] == [0, 0]

    @pytest.mark.parametrize("ref_lat", [math.nan, math.inf, -math.inf, 1e308, 90.5, -91.0])
    def test_reference_latitude_off_the_sphere_refused(self, ref_lat):
        # at NaN every distance was NaN, and no record escaped a window
        traj = Trajectory("d", [0, 60], [116.0, 117.0], [39.9, 39.9])
        with pytest.raises(ValueError, match=r"ref_lat must lie in \[-90, 90\]"):
            planar(traj, ref_lat)

    def test_poles_are_reference_latitudes(self):
        for ref_lat in (-90.0, 90.0):
            x, y = planar(at([1.0], [0.0]), ref_lat)
            assert abs(x[0]) < 1e-9 and y[0] == 0.0

    def test_planar_distance_takes_the_short_way_round(self):
        a, b = (179.9999, 10.0), (-179.9999, 10.0)
        d = planar_distance(a, b, 10.0)
        assert d == pytest.approx(0.0002 * METERS_PER_DEGREE * math.cos(math.radians(10.0)))


def per_device_projection(lons, lats, sizes, ref_lat) -> tuple[list, list]:
    """Each device's records projected alone, record by record in Python
    floats: longitudes more than 180 degrees from the device's first one
    shifted by 360, then scaled by ``math.cos`` of the reference latitude,
    ``ref_lat`` or else the device's first latitude."""
    xs, ys = [], []
    start = 0
    for n in sizes:
        lon_run, lat_run = lons[start : start + n], lats[start : start + n]
        start += n
        if not n:
            continue
        lat0 = lat_run[0] if ref_lat is None else ref_lat
        scale = METERS_PER_DEGREE * math.cos(math.radians(lat0))
        for lon, lat in zip(lon_run, lat_run):
            d = lon - lon_run[0]
            lon = lon - 360.0 if d > 180.0 else lon + 360.0 if d < -180.0 else lon
            xs.append(lon * scale)
            ys.append(lat * METERS_PER_DEGREE)
    return xs, ys


def bits(values) -> list[int]:
    """The IEEE bit patterns of float64 values: equal bits, equal floats,
    -0.0 and 0.0 told apart."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestProjectRuns:
    """Many devices projected at once, each bit for bit as alone."""

    @staticmethod
    def _devices(rng):
        # ordinary devices, devices on either side of the antimeridian and
        # starting on either side of it, lone records and zero-size runs
        lons, lats, sizes = [], [], []
        for k in range(40):
            n = [0, 1, int(rng.integers(2, 12))][k % 3]
            if k % 4 == 1:  # straddles the antimeridian
                side = rng.choice([-1.0, 1.0], n)
                lon = side * (180.0 - rng.uniform(0.0, 0.01, n))
            else:
                lon = rng.uniform(-179.0, 179.0) + rng.uniform(-0.5, 0.5, n)
            lons += np.clip(lon, -180.0, 180.0).tolist()
            lat = rng.uniform(-80.0, 80.0) + rng.normal(0.0, 0.1, n)
            lats += np.clip(lat, -90.0, 90.0).tolist()
            sizes.append(n)
        return lons, lats, sizes

    @pytest.mark.parametrize("ref_lat", [None, 45.0, -89.5])
    def test_many_devices_equal_each_alone(self, rng, ref_lat):
        for _ in range(20):
            lons, lats, sizes = self._devices(rng)
            x, y = project_runs(np.array(lons), np.array(lats), sizes, ref_lat)
            want_x, want_y = per_device_projection(lons, lats, sizes, ref_lat)
            assert (bits(x), bits(y)) == (bits(want_x), bits(want_y))

    def test_antimeridian_device_beside_ordinary_ones(self):
        # the shift follows each device's own first longitude
        lons = [116.0, 116.001, 179.9999, -179.9999, -179.9999, 179.9999, 0.0]
        lats = [39.9, 39.9, 10.0, 10.0, 10.0, 10.0, 0.0]
        sizes = [2, 2, 2, 1]
        x, y = project_runs(np.array(lons), np.array(lats), sizes)
        want = per_device_projection(lons, lats, sizes, None)
        assert (bits(x), bits(y)) == (bits(want[0]), bits(want[1]))
        gap = 0.0002 * METERS_PER_DEGREE * math.cos(math.radians(10.0))
        assert abs(x[3] - x[2]) == pytest.approx(gap, rel=1e-6)
        assert abs(x[5] - x[4]) == pytest.approx(gap, rel=1e-6)

    @pytest.mark.parametrize("sizes", [[], [0], [0, 0, 0]])
    def test_empty_input(self, sizes):
        x, y = project_runs(np.zeros(0), np.zeros(0), sizes)
        assert (x.size, y.size) == (0, 0)

    @pytest.mark.parametrize("ref_lat", [None, 45.0])
    def test_planar_is_a_one_device_run(self, rng, ref_lat):
        lons, lats, sizes = self._devices(rng)
        x, y = project_runs(np.array(lons), np.array(lats), sizes, ref_lat)
        ends = np.cumsum(sizes).tolist()
        for n, end in zip(sizes, ends):
            traj = Trajectory("d", np.arange(n), lons[end - n : end], lats[end - n : end])
            got = planar(traj, ref_lat)
            alone = project_runs(traj.lons, traj.lats, [n], ref_lat)
            assert bits(got[0]) == bits(alone[0]) == bits(x[end - n : end])
            assert bits(got[1]) == bits(alone[1]) == bits(y[end - n : end])


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
        labeled = LabeledTrajectory(Trajectory("d", [0, 1, 2], [0.0] * 3, [0.0] * 3), codes)
        assert labeled.letters() == ["S", "T", "U"]
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

    @pytest.mark.parametrize(
        "delta_s", [math.nextafter(SMALLEST_DELTA_S, 0.0), 1e-200, 1e-300, 5e-324]
    )
    def test_delta_s_whose_squared_radii_underflow_rejected(self, delta_s):
        # (delta_s / 3) ** 2 falls below the smallest normal float; at 1e-200
        # it was 0.0, which a distance of 0 reaches
        with pytest.raises(ValueError, match=r"delta_s must be at least about 4\.475e-154"):
            MobilityParams(delta_s)
        smallest = radii(MobilityParams(SMALLEST_DELTA_S)).escape
        assert smallest * smallest == sys.float_info.min


class TestRadii:
    @pytest.mark.parametrize("delta_s", [800.0, 1.0, 0.1, 800.5, SMALLEST_DELTA_S, 3e300])
    def test_bit_for_bit(self, delta_s):
        # the references in the tests read this rule too, so only this test
        # sees a drift in the rule itself; the thirds of these do not round
        # evenly, and the last two lie near the ends of the float range
        for delta_t in (1.0, 1800.0):
            got = radii(MobilityParams(delta_s, delta_t))
            assert got._fields == ("escape", "witness", "dense", "travel_pool")
            assert [r.hex() for r in got] == [
                (delta_s / 3.0).hex(), delta_s.hex(), delta_s.hex(), (delta_s / 2.0).hex()
            ]


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


def columns(*trajs):
    """The times and sizes of trajectories laid out one after another."""
    return np.concatenate([t.times for t in trajs]), [len(t) for t in trajs]


def mean_gap(traj) -> float:
    return float(mean_gaps(*columns(traj))[0])


def coverage(traj, delta_t) -> float:
    return float(coverages(*columns(traj), delta_t)[0])


class TestGlobalSparsity:
    def test_uniform_gaps(self):
        assert mean_gap(traj_from_meters(minutes(0, 10, 20), [0.0] * 3)) == 600.0

    def test_single_gap(self):
        assert mean_gap(traj_from_meters(minutes(0, 30), [0.0] * 2)) == 1800.0

    def test_mixed_gaps(self):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5)
        assert mean_gap(traj) == 3750.0

    def test_undefined_below_two_records(self):
        assert math.isnan(mean_gap(traj_from_meters([0], [0.0])))

    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(min_value=1, max_value=100))
    def test_scales_with_time_dilation(self, k):
        base = [0, 600, 7800, 9000]
        a = mean_gap(traj_from_meters(base, [0.0] * 4))
        b = mean_gap(traj_from_meters([t * k for t in base], [0.0] * 4))
        assert b == pytest.approx(k * a, rel=1e-12)

    def test_each_device_its_own_mean(self, rng):
        trajs = [random_trajectory(rng) for _ in range(20)]
        got = mean_gaps(*columns(*trajs))
        for traj, value in zip(trajs, got.tolist()):
            if len(traj) < 2:
                assert math.isnan(value)
            else:
                assert value == float(np.diff(traj.times).mean())

    def test_span_over_gaps_above_two_to_the_53(self):
        # the gaps 1 and 2**53 + 1 sum, as doubles, to 2**53, whose half is
        # 2**52; the span, 2**53 + 2, is a double, and so is its half
        traj = Trajectory("d", [0, 1, 2**53 + 2], [0.0] * 3, [0.0] * 3)
        assert float(np.diff(traj.times).mean()) == 2.0**52
        assert mean_gap(traj) == 2**52 + 1


class TestLocalCoverage:
    def test_one_isolated_interior_record(self):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5)
        assert coverage(traj, 1800.0) == pytest.approx(0.8)

    def test_all_dense(self):
        traj = traj_from_meters(minutes(0, 10, 20, 30), [0.0] * 4)
        assert coverage(traj, 1800.0) == 1.0

    def test_middle_of_three_isolated(self):
        traj = traj_from_meters(minutes(0, 60, 120), [0.0] * 3)
        assert coverage(traj, 1800.0) == pytest.approx(2 / 3)

    def test_endpoints_never_isolated(self):
        # both gaps huge: only the interior record can be isolated
        traj = traj_from_meters([0, 100000, 200000], [0.0] * 3)
        assert coverage(traj, 1800.0) == pytest.approx(2 / 3)
        # nor are a device's ends beside another device's far-off records
        lone = traj_from_meters([10**9], [0.0])
        got = coverages(*columns(lone, traj, lone, lone), 1800.0)
        assert got.tolist() == [1.0, 2 / 3, 1.0, 1.0]

    def test_empty_undefined(self):
        # a device has at least one record; with no device there is nothing
        none = np.zeros(0, dtype=np.int64)
        assert coverages(none, [], 1800.0).size == 0
        assert mean_gaps(none, []).size == 0

    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(min_value=1, max_value=50))
    def test_invariant_under_joint_dilation(self, k):
        # index 2 is isolated (gaps 7200 and 22200), so coverage is 0.8
        base = [0, 600, 7800, 30000, 31000]
        a = coverage(traj_from_meters(base, [0.0] * 5), 1800.0)
        assert a == pytest.approx(0.8)
        b = coverage(traj_from_meters([t * k for t in base], [0.0] * 5), 1800.0 * k)
        assert a == b

    def test_each_device_as_alone(self, rng):
        # each device starting long after the one before ends
        trajs = [random_trajectory(rng) for _ in range(20)]
        trajs = [
            Trajectory("d", t.times + 10**7 * k, t.lons, t.lats) for k, t in enumerate(trajs)
        ]
        for delta_t in (60.0, 1800.0, 7200.5):
            got = coverages(*columns(*trajs), delta_t)
            for traj, value in zip(trajs, got.tolist()):
                gaps = np.diff(traj.times)
                isolated = int(((gaps[:-1] > delta_t) & (gaps[1:] > delta_t)).sum())
                assert value == (len(traj) - isolated) / len(traj)
