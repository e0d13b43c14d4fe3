"""Random-walk generator, continuous truth labels, and sampling utilities."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    StayPeriod,
    TravelLeg,
    axis_path,
    dense_stay_windows,
    fit_power_law_exponent,
    periods_of,
    reference_continuous_labels,
    reference_ctrw_periods,
    reference_generate_ctrw,
    reference_schedule,
    sample_truncated_power_law,
)
import sparsemob.simulate as simulate
from sparsemob.core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    METERS_PER_DEGREE,
    MobilityParams,
)
from sparsemob.evaluate import ExperimentConfig, experiment_trajectory
from sparsemob.simulate import (
    MAX_WALK_CYCLES,
    SCHEDULE_BLOCK,
    CtrwConfig,
    GroundTruthPath,
    _search_label,
    _skip_uniforms,
    check_supports,
    continuous_labels,
    generate_ctrw,
    observe,
    resample,
    seeded,
    synth_schedule,
    window_diameter,
)

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)


class _FixedUniform:
    """Stub generator returning preset uniforms, for endpoint checks."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size=None):
        if size is None:
            return float(self.values)
        assert size == self.values.size
        return self.values


class TestTruncatedPowerLaw:
    def test_zero_maps_to_lower(self):
        assert sample_truncated_power_law(_FixedUniform(0.0), 2.0, 1.0, 100.0) == 1.0

    def test_one_maps_to_upper(self):
        got = sample_truncated_power_law(_FixedUniform(1.0), 2.0, 1.0, 100.0)
        assert got == pytest.approx(100.0, rel=1e-12)

    def test_median_of_unit_square_law(self):
        # solving (1 - 1/x) / (1 - 1/100) = 0.5 by hand gives 1.98019...
        got = sample_truncated_power_law(_FixedUniform(0.5), 2.0, 1.0, 100.0)
        assert got == pytest.approx(1.9802, abs=1e-4)

    def test_all_draws_in_bounds(self, rng):
        vals = sample_truncated_power_law(rng, 1.6, 60.0, 21600.0, size=10000)
        assert vals.min() >= 60.0
        assert vals.max() <= 21600.0

    def test_log_uniform_boundary_exponent(self):
        got = sample_truncated_power_law(_FixedUniform(0.5), 1.0, 1.0, 100.0)
        assert got == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kw",
        [
            {"exponent": 0.5, "lower": 1.0, "upper": 10.0},
            {"exponent": 2.0, "lower": 0.0, "upper": 10.0},
            {"exponent": 2.0, "lower": 10.0, "upper": 10.0},
            {"exponent": 2.0, "lower": 20.0, "upper": 10.0},
        ],
    )
    def test_invalid_parameters(self, kw):
        with pytest.raises(ValueError):
            sample_truncated_power_law(_FixedUniform(0.5), **kw)


class TestFitPowerLawExponent:
    def test_closed_form_at_e_times_lower(self):
        samples = np.full(50, math.e * 3.0)
        assert fit_power_law_exponent(samples, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_all_at_lower_bound_diverges(self):
        with pytest.raises(ValueError, match="diverges"):
            fit_power_law_exponent(np.full(10, 5.0), 5.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_power_law_exponent(np.array([7.0]), 1.0)

    def test_rejects_samples_below_lower(self):
        with pytest.raises(ValueError):
            fit_power_law_exponent(np.array([0.5, 2.0]), 1.0)

    def test_recovers_exponent_from_draws(self, rng):
        # wide truncation so the untruncated estimator's bias is negligible
        vals = sample_truncated_power_law(rng, 2.0, 1.0, 1e9, size=100_000)
        assert fit_power_law_exponent(vals, 1.0) == pytest.approx(2.0, abs=0.1)


class TestGenerateCtrw:
    def test_deterministic_per_seed(self):
        config = CtrwConfig(seed=42)
        a = generate_ctrw(config)
        b = generate_ctrw(config)
        assert np.array_equal(a.vertex_times, b.vertex_times)
        assert np.array_equal(a.vertex_x, b.vertex_x)
        assert np.array_equal(a.vertex_y, b.vertex_y)

    def test_different_seed_different_path(self):
        a = generate_ctrw(CtrwConfig(seed=1))
        b = generate_ctrw(CtrwConfig(seed=2))
        assert not np.array_equal(a.vertex_x, b.vertex_x)

    def test_periods_tile_duration(self):
        path = generate_ctrw(CtrwConfig(seed=3))
        periods = periods_of(path)
        assert periods[0].start == 0.0
        for prev, cur in zip(periods, periods[1:]):
            assert cur.start == prev.end
        assert periods[-1].end == path.duration

    def test_truncation_bounds_hold(self):
        config = CtrwConfig(seed=4)
        path = generate_ctrw(config)
        for period in periods_of(path)[:-1]:
            if isinstance(period, StayPeriod):
                assert period.duration >= config.wait_min
                assert period.duration <= config.wait_max
            else:
                assert config.jump_min <= period.length <= config.jump_max
                assert period.speed == pytest.approx(config.speed)

    def test_consecutive_dwell_points_separated(self):
        config = CtrwConfig(seed=5)
        path = generate_ctrw(config)
        dwells = [p for p in periods_of(path) if isinstance(p, StayPeriod)]
        for a, b in zip(dwells, dwells[1:]):
            d = math.hypot(a.x - b.x, a.y - b.y)
            assert d >= config.jump_min - 1e-9


class TestCtrwConfig:
    @pytest.mark.parametrize(
        "field", ["duration", "jitter_radius", "speed", "wait_max", "start_span", "origin_lat"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        # an infinite duration walks forever and a NaN one makes no period
        # at all; a NaN jitter passes check_supports, as nan >= x is false
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CtrwConfig(**{field: value})

    @pytest.mark.parametrize("field", ["wait_exponent", "jump_exponent"])
    @pytest.mark.parametrize("value", [0.0, 0.999, math.nan])
    def test_exponent_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CtrwConfig(**{field: value})

    def test_walk_past_the_cycle_bound_rejected(self):
        # the walk draws its dwell cycles one by one, and duration / wait_min
        # bounds how many it draws: at 1e12 s it would run for hours
        with pytest.raises(ValueError, match="over the 1000000 dwell cycles"):
            CtrwConfig(duration=1e12)
        bound = MAX_WALK_CYCLES * 1800.0
        CtrwConfig(duration=bound)
        with pytest.raises(ValueError, match="dwell cycles"):
            CtrwConfig(duration=math.nextafter(bound, math.inf))
        # the bound is on the ratio, not the duration
        CtrwConfig(duration=1e12, wait_min=1e9, wait_max=2e9)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_matches_reference(config: CtrwConfig) -> tuple:
    """generate_ctrw(config) against the one-draw-at-a-time walk, bit for
    bit; returns the reference's period objects."""
    got = generate_ctrw(config)
    want = reference_generate_ctrw(config)
    periods = reference_ctrw_periods(config)
    for name in ("vertex_times", "vertex_x", "vertex_y"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    stay = [isinstance(p, StayPeriod) for p in periods]
    assert got.period_stay.tolist() == stay
    assert _bits(got.period_start) == _bits([p.start for p in periods])
    assert _bits(got.period_duration) == _bits([p.duration for p in periods])
    lengths = [0.0 if s else p.length for s, p in zip(stay, periods)]
    assert _bits(got.period_length) == _bits(lengths)
    assert _bits([got.duration]) == _bits([want.duration])
    return periods


class TestGenerateCtrwReference:
    """The block-drawn walk against the reference that draws one uniform at
    a time."""

    @pytest.mark.parametrize(
        "overrides, seeds",
        [
            ({}, range(600)),
            ({"wait_exponent": 1.0, "duration": 20000.0}, range(1000, 1300)),
            ({"jump_exponent": 1.0, "speed": 3.0}, range(2000, 2200)),
        ],
        ids=["default", "log-uniform-wait", "log-uniform-jump"],
    )
    def test_bit_identical_over_seeds(self, overrides, seeds):
        for seed in seeds:
            assert_matches_reference(CtrwConfig(seed=seed, **overrides))

    def test_both_horizon_cuts(self):
        # a short horizon ends some walks inside a leg, cut at the
        # interpolated point, and others inside a dwell cut short
        cuts = set()
        for seed in range(60):
            last = assert_matches_reference(CtrwConfig(seed=seed, duration=9000.0))[-1]
            assert last.end == 9000.0
            cuts.add("leg" if isinstance(last, TravelLeg) else "dwell")
        assert cuts == {"leg", "dwell"}

    @settings(deadline=None, max_examples=100)
    @given(
        wait_exponent=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
        jump_exponent=st.one_of(st.just(1.0), st.floats(1.0, 3.0)),
        wait_min=st.floats(60.0, 5000.0),
        wait_ratio=st.floats(1.001, 100.0),
        jump_min=st.floats(1.0, 5000.0),
        jump_ratio=st.floats(1.001, 100.0),
        speed=st.floats(0.1, 100.0),
        duration=st.floats(1.0, 50000.0),
        start_span=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**63),
    )
    def test_bit_identical_for_any_valid_config(
        self, wait_ratio, jump_ratio, wait_min, jump_min, **fields
    ):
        config = CtrwConfig(
            wait_min=wait_min,
            wait_max=wait_min * wait_ratio,
            jump_min=jump_min,
            jump_max=jump_min * jump_ratio,
            **fields,
        )
        assert_matches_reference(config)


class TestGroundTruthPath:
    def test_arrays_derived_from_vertices(self):
        path = axis_path([(0, 0), (300, 400)], dwell=100.0, speed=5.0)
        assert path.period_stay.tolist() == [True, False, True]
        assert path.period_start.tolist() == [0.0, 100.0, 200.0]
        assert path.period_duration.tolist() == [100.0, 100.0, 100.0]
        assert path.period_length.tolist() == [0.0, 500.0, 0.0]
        assert not path.period_length.flags.writeable

    @pytest.mark.parametrize("flags", [[True, False], [True, False, True, True]])
    def test_one_flag_per_period(self, flags):
        with pytest.raises(ValueError, match="a flag per period"):
            GroundTruthPath(
                vertex_times=[0.0, 1.0, 2.0, 3.0],
                vertex_x=[0.0] * 4,
                vertex_y=[0.0] * 4,
                period_stay=flags,
                duration=3.0,
                origin_lon=0.0,
                origin_lat=0.0,
            )


class TestCheckSupports:
    def test_default_config_supports_default_params(self):
        check_supports(CtrwConfig(), PARAMS)

    def test_short_dwells_rejected(self):
        with pytest.raises(ValueError, match="wait_min"):
            check_supports(CtrwConfig(wait_min=600.0), PARAMS)

    def test_short_jumps_rejected(self):
        with pytest.raises(ValueError, match="jump_min"):
            check_supports(CtrwConfig(jump_min=500.0, jump_max=20000.0), PARAMS)

    def test_wide_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            check_supports(CtrwConfig(jitter_radius=400.0), PARAMS)


class TestContinuousLabels:
    def test_mid_dwell_is_stay(self):
        path = generate_ctrw(CtrwConfig(seed=6))
        dwell = next(
            p
            for p in periods_of(path)[:-1]
            if isinstance(p, StayPeriod) and p.duration >= PARAMS.delta_t
        )
        mid = (dwell.start + dwell.end) / 2.0
        assert continuous_labels(path, [mid], PARAMS)[0] == LABEL_STAY

    def test_leg_midpoint_far_from_dwells_is_travel(self):
        # legs are at least 800 m and the midpoint of a long one sits much
        # farther than delta_s from both endpoint dwell points
        for seed in (7, 107, 207, 307):
            path = generate_ctrw(CtrwConfig(seed=seed))
            legs = [
                p
                for p in periods_of(path)[1:-1]
                if isinstance(p, TravelLeg) and p.length >= 4000.0
            ]
            if legs:
                mid = (legs[0].start + legs[0].end) / 2.0
                assert continuous_labels(path, [mid], PARAMS)[0] == LABEL_TRAVEL
                return
        pytest.fail("no long leg found across seeds")

    def test_leg_tail_near_next_dwell_is_stay(self):
        path = generate_ctrw(CtrwConfig(seed=8))
        periods = periods_of(path)
        for i, p in enumerate(periods[:-1]):
            if not isinstance(p, TravelLeg):
                continue
            nxt = periods[i + 1]
            if not (isinstance(nxt, StayPeriod) and nxt.duration >= PARAMS.delta_t):
                continue
            # instant 300 m (< delta_s / 2) short of arrival
            t = p.end - 300.0 / p.speed
            if t <= p.start:
                continue
            assert continuous_labels(path, [t], PARAMS)[0] == LABEL_STAY
            return
        pytest.skip("no qualifying leg in this path")

    def test_short_interior_dwell_rejected(self):
        path = generate_ctrw(CtrwConfig(seed=10, wait_min=600.0, wait_max=1200.0))
        with pytest.raises(ValueError, match="interior dwell"):
            continuous_labels(path, [0.0], PARAMS)

    def test_out_of_range_timestamp_rejected(self):
        path = generate_ctrw(CtrwConfig(seed=11))
        with pytest.raises(ValueError):
            continuous_labels(path, [path.duration + 1.0], PARAMS)

    def test_agrees_with_one_second_window_sweep(self, rng):
        # independent route: scan every window start on a 1 s grid and
        # compare verdicts, skipping knife-edge cases where the sweep's
        # granularity could legitimately change the answer
        step = 2.0
        for seed in range(4):
            config = CtrwConfig(seed=600 + seed, duration=86400.0)
            path = generate_ctrw(config)
            times = rng.uniform(0.0, path.duration, 12)
            labels = continuous_labels(path, times, PARAMS)
            for t, label in zip(times, labels):
                lo = max(0.0, t - PARAMS.delta_t)
                hi = min(t, path.duration - PARAMS.delta_t)
                if hi < lo:
                    assert label == LABEL_TRAVEL
                    continue
                starts = np.append(np.arange(lo, hi, step), hi)
                best = min(
                    window_diameter(path, s, PARAMS.delta_t) for s in starts
                )
                if abs(best - PARAMS.delta_s) < 2.0 * config.speed * step:
                    continue
                want = LABEL_STAY if best < PARAMS.delta_s else LABEL_TRAVEL
                assert label == want


class TestWindowDiameter:
    def test_matches_densely_sampled_extent(self, rng):
        path = generate_ctrw(CtrwConfig(seed=12))
        for _ in range(12):
            start = float(rng.uniform(0.0, path.duration - PARAMS.delta_t))
            got = window_diameter(path, start, PARAMS.delta_t)
            samples = np.linspace(start, start + PARAMS.delta_t, 1500)
            sx, sy = path.position_at(samples)
            d2 = (sx[:, None] - sx[None, :]) ** 2 + (sy[:, None] - sy[None, :]) ** 2
            sampled = math.sqrt(float(d2.max()))
            step = PARAMS.delta_t / 1499.0
            assert sampled <= got + 1e-9
            assert got <= sampled + 2.0 * CtrwConfig().speed * step + 1e-9

    def test_dwell_window_has_zero_diameter(self):
        path = generate_ctrw(CtrwConfig(seed=13))
        dwell = next(
            p
            for p in periods_of(path)[:-1]
            if isinstance(p, StayPeriod) and p.duration >= PARAMS.delta_t
        )
        assert window_diameter(path, dwell.start, PARAMS.delta_t) == 0.0


class TestContinuousLabelsReference:
    """The whole-array truth labels against the per-timestamp reference."""

    @pytest.mark.parametrize(
        "params",
        [PARAMS, MobilityParams(delta_s=300.0, delta_t=600.5)],
        ids=["default", "fractional-delta-t"],
    )
    def test_experiment_paths(self, params):
        config = ExperimentConfig(trajectories=400, params=params, seed=5)
        for index in range(config.trajectories):
            path, traj, _ = experiment_trajectory(config, index, with_truth=False)
            got = continuous_labels(path, traj.times, params)
            want = reference_continuous_labels(path, traj.times, params)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), index

    @pytest.mark.parametrize("tail", ["leg", "short-dwell", "full-dwell"])
    def test_one_hertz_through_the_horizon(self, tail):
        # the final period is cut at the horizon: a leg, a dwell shorter than
        # delta_t (the search decides it and the leg before it), or a dwell
        # that still outlasts delta_t
        for seed in range(200):
            path = generate_ctrw(CtrwConfig(seed=seed, duration=20000.0))
            periods = periods_of(path)
            last = periods[-1]
            kind = (
                "leg"
                if isinstance(last, TravelLeg)
                else "short-dwell" if last.duration < PARAMS.delta_t else "full-dwell"
            )
            if kind == tail and len(periods) >= 4:
                break
        else:
            pytest.fail(f"no path ends in a {tail}")
        times = np.arange(0, int(path.duration) + 1)
        got = continuous_labels(path, times, PARAMS)
        assert got.tolist() == reference_continuous_labels(path, times, PARAMS).tolist()
        assert set(got.tolist()) == {LABEL_STAY, LABEL_TRAVEL}

    def test_times_on_period_boundaries(self):
        for seed in range(20):
            path = generate_ctrw(CtrwConfig(seed=300 + seed))
            times = np.concatenate(
                (path.vertex_times, np.nextafter(path.vertex_times[1:], 0.0))
            )
            got = continuous_labels(path, times, PARAMS)
            want = reference_continuous_labels(path, times, PARAMS)
            assert got.tolist() == want.tolist(), seed

    @pytest.mark.parametrize("axis", [0, 1])
    def test_exactly_delta_s_from_an_endpoint_is_travel(self, axis):
        # a 2560 m leg at 10 m/s takes 256 s, so 80 s into it the device is
        # exactly 800 m = delta_s from where it left: a tie, which `<` makes
        # travel; a second nearer it is a dwell instant
        stops = [(0, 0), (2560, 0), (2560, 3000)]
        path = axis_path([p[::-1] for p in stops] if axis else stops, dwell=3600.0)
        leg = periods_of(path)[1]
        assert isinstance(leg, TravelLeg) and leg.duration == 256.0
        times = leg.start + np.array([79, 80, 81, 128, 175, 176, 177])
        got = continuous_labels(path, times, PARAMS)
        S, T = LABEL_STAY, LABEL_TRAVEL
        assert got.tolist() == [S, T, T, T, T, T, S]
        assert got.tolist() == reference_continuous_labels(path, times, PARAMS).tolist()
        # the closed form agrees with the exact window search at the tie
        assert got.tolist() == [_search_label(path, float(s), PARAMS) for s in times]


class TestObserve:
    def test_boundary_instants_belong_to_the_later_period(self):
        # dwells of 3600 s joined by 256 s legs: every period starts on an
        # integer second, and only reads inside a dwell are jittered
        path = axis_path([(0, 0), (2560, 0), (2560, 2560)], dwell=3600.0)
        periods = periods_of(path)
        starts = [int(p.start) for p in periods]
        assert path.period_index_at(starts).tolist() == list(range(len(starts)))
        assert path.period_index_at([s - 1 for s in starts[1:]]).tolist() == [0, 1, 2, 3]
        traj = observe(path, starts, jitter_radius=50.0, rng=np.random.default_rng(4))
        x, _ = path.position_at(starts)
        ox = (traj.lons - path.origin_lon) * METERS_PER_DEGREE * math.cos(
            math.radians(path.origin_lat)
        )
        moved = np.abs(ox - x) > 1e-6
        assert moved.tolist() == [isinstance(p, StayPeriod) for p in periods]

    def test_zero_jitter_reads_exact_dwell_points(self):
        config = CtrwConfig(seed=14)
        path = generate_ctrw(config)
        dwell = next(p for p in periods_of(path) if isinstance(p, StayPeriod))
        t = int(dwell.start) + 1
        traj = observe(path, [t])
        # exact in the planar frame before conversion; compare via round trip
        px, py = path.position_at([float(t)])
        assert px[0] == pytest.approx(
            (traj.lons[0] - path.origin_lon)
            * METERS_PER_DEGREE
            * math.cos(math.radians(path.origin_lat)),
            abs=1e-6,
        )
        assert py[0] == pytest.approx(
            (traj.lats[0] - path.origin_lat) * METERS_PER_DEGREE, abs=1e-6
        )

    def test_jitter_bounded_and_dwell_only(self):
        config = CtrwConfig(seed=15, jitter_radius=100.0)
        path = generate_ctrw(config)
        times = np.arange(0, int(path.duration), 97)
        rng = np.random.default_rng(7)
        traj = observe(path, times, jitter_radius=100.0, rng=rng)
        px, py = path.position_at(times.astype(np.float64))
        ox = (traj.lons - path.origin_lon) * METERS_PER_DEGREE * math.cos(
            math.radians(path.origin_lat)
        )
        oy = (traj.lats - path.origin_lat) * METERS_PER_DEGREE
        offsets = np.hypot(ox - px, oy - py)
        periods = periods_of(path)
        in_dwell = np.array(
            [
                isinstance(periods[i], StayPeriod)
                for i in path.period_index_at(times.astype(np.float64))
            ]
        )
        assert (offsets[in_dwell] <= 100.0 + 1e-9).all()
        assert (offsets[~in_dwell] <= 1e-6).all()
        assert offsets[in_dwell].max() > 1.0  # jitter actually applied

    def test_observation_deterministic(self):
        path = generate_ctrw(CtrwConfig(seed=16))
        times = np.arange(0, int(path.duration), 301)
        a = observe(path, times, jitter_radius=50.0, rng=np.random.default_rng(3))
        b = observe(path, times, jitter_radius=50.0, rng=np.random.default_rng(3))
        assert np.array_equal(a.lons, b.lons)
        assert np.array_equal(a.lats, b.lats)

    def test_out_of_range_time_rejected(self):
        path = generate_ctrw(CtrwConfig(seed=17))
        with pytest.raises(ValueError):
            observe(path, [int(path.duration) + 10])


class TestResample:
    def test_rate_one_is_identity(self, rng):
        traj = observe(generate_ctrw(CtrwConfig(seed=19)), [0, 100, 200, 400])
        out, keep = resample(traj, 1.0, rng)
        assert keep.all()
        assert np.array_equal(out.times, traj.times)
        assert np.array_equal(out.lons, traj.lons)

    def test_rate_zero_is_empty(self, rng):
        traj = observe(generate_ctrw(CtrwConfig(seed=20)), [0, 100, 200])
        assert len(resample(traj, 0.0, rng)[0]) == 0

    def test_invalid_rate(self, rng):
        traj = observe(generate_ctrw(CtrwConfig(seed=21)), [0, 100])
        with pytest.raises(ValueError):
            resample(traj, 1.5, rng)

    def test_deterministic_given_seed(self):
        traj = observe(generate_ctrw(CtrwConfig(seed=22)), np.arange(0, 50000, 97))
        a, _ = resample(traj, 0.4, np.random.default_rng(11))
        b, _ = resample(traj, 0.4, np.random.default_rng(11))
        assert np.array_equal(a.times, b.times)

    def test_kept_fraction_within_three_sigma(self):
        n = 100_000
        traj = observe(
            generate_ctrw(CtrwConfig(seed=23, duration=float(n))), np.arange(n)
        )
        kept = len(resample(traj, 0.3, np.random.default_rng(5))[0])
        sigma = math.sqrt(n * 0.3 * 0.7)
        assert abs(kept - n * 0.3) <= 3.0 * sigma

    def test_labels_travel_with_records(self):
        path = generate_ctrw(CtrwConfig(seed=24))
        times = np.arange(0, int(path.duration), 211)
        traj = observe(path, times)
        labels = continuous_labels(path, traj.times, PARAMS)
        sub, keep = resample(traj, 0.5, np.random.default_rng(2))
        sub_labels = labels[keep]
        assert len(sub) == len(sub_labels)
        # every kept record keeps the label it had at full density
        full = {int(t): int(c) for t, c in zip(traj.times, labels)}
        for t, c in zip(sub.times, sub_labels):
            assert full[int(t)] == int(c)


class TestSynthSchedule:
    def test_strictly_increasing_and_bounded_gaps(self, rng):
        times = synth_schedule(rng, 5000, gap_min=60.0, gap_max=21600.0)
        gaps = np.diff(times)
        assert (gaps > 0).all()
        assert gaps.min() >= 60
        assert gaps.max() <= 21601

    def test_deterministic(self):
        a = synth_schedule(np.random.default_rng(9), 100)
        b = synth_schedule(np.random.default_rng(9), 100)
        assert np.array_equal(a, b)

    def test_count_zero_empty(self, rng):
        assert synth_schedule(rng, 0).size == 0

    def test_colliding_gap_min_rejected(self, rng):
        with pytest.raises(ValueError):
            synth_schedule(rng, 10, gap_min=1.0)

    def test_nan_horizon_rejected(self, rng):
        # every comparison with NaN is false: no time lies at or before such
        # a horizon, and none passes it to stop the draws
        with pytest.raises(ValueError, match="horizon"):
            synth_schedule(rng, 10, horizon=math.nan)

    def test_gap_distribution_matches_generating_law(self, rng):
        # round trip: fitted exponent close to the configured one; the fixed
        # upper truncation biases the plain estimator high by about 0.07 here
        times = synth_schedule(rng, 100_000, gap_exponent=1.6)
        gaps = np.diff(times).astype(np.float64)
        fitted = fit_power_law_exponent(gaps, 60.0)
        assert fitted == pytest.approx(1.6, abs=0.1)


class TestScheduleHorizon:
    """The blocked draw up to a horizon against one draw of all ``count``
    uniforms clipped at the horizon, bit for bit, and the generator's next
    draws after it."""

    @pytest.fixture
    def drawn(self, monkeypatch):
        """The gap blocks synth_schedule transforms, as it transforms them."""
        blocks = []
        make = simulate._power_law_transform

        def recording(*args):
            transform = make(*args)

            def record(u):
                blocks.append(transform(u))
                return blocks[-1]

            return record

        monkeypatch.setattr(simulate, "_power_law_transform", recording)
        return blocks

    @pytest.mark.parametrize(
        "count, horizon, law",
        [
            (4320, 259200.0, {}),
            (4320, 259200.0, {"gap_exponent": 1.0}),
            (4320, 2000.0, {}),
            (4320, 100000.5, {}),
            (700, 1e12, {"gap_max": 600.0}),
            (0, 1000.0, {}),
        ],
        ids=["experiment", "log-uniform", "first-block", "fractional", "unreached", "empty"],
    )
    def test_blocked_draw_equals_full_draw(self, drawn, count, horizon, law):
        for seed in range(1000):
            ref = np.random.default_rng((seed, 1))
            gaps, times = reference_schedule(ref, count, **law)
            drawn.clear()
            rng = np.random.default_rng((seed, 1))
            got = synth_schedule(rng, count, horizon=horizon, **law)
            assert got.tolist() == times[times <= horizon].tolist(), seed
            # the gaps transformed block by block are the full array's
            # lanes, whatever a lane's position in its block
            used = np.concatenate([np.zeros(0)] + drawn)
            assert _bits(used) == _bits(gaps[: len(used)]), seed
            assert len(used) >= len(got)
            assert _bits(rng.random(64)) == _bits(ref.random(64)), seed
            if horizon == 2000.0:
                assert len(drawn) == 1
            if horizon == 1e12:
                assert len(used) == count

    def test_count_only_form_equals_full_draw(self, drawn):
        # counts on either side of whole blocks, so that blocks end anywhere
        for seed in range(1000):
            count = 1 + seed % (3 * SCHEDULE_BLOCK)
            ref = np.random.default_rng(seed)
            gaps, times = reference_schedule(ref, count)
            drawn.clear()
            rng = np.random.default_rng(seed)
            assert synth_schedule(rng, count).tolist() == times.tolist(), seed
            assert _bits(np.concatenate(drawn)) == _bits(gaps), seed
            assert _bits(rng.random(64)) == _bits(ref.random(64)), seed

    def test_count_only_form_is_pinned(self):
        # the benchmark's inputs draw their schedules in this form and pin
        # digests of the files made from them
        digest = hashlib.sha256()
        for d in range(10):
            times = synth_schedule(np.random.default_rng((0, d)), 1000)
            digest.update(times.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "1d1e2bfe98de70a0e533d521ed0ac263e3fd518280cd62034f77e85abf93810f"
        )

    @pytest.mark.parametrize(
        "make",
        [
            np.random.default_rng,
            lambda seed: np.random.Generator(np.random.MT19937(seed)),
            lambda seed: np.random.Generator(np.random.Philox(seed)),
            lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
            lambda seed: np.random.Generator(np.random.SFC64(seed)),
        ],
        ids=["pcg64", "mt19937", "philox", "pcg64dxsm", "sfc64"],
    )
    @pytest.mark.parametrize("half", [False, True], ids=["whole", "half-buffered"])
    def test_next_draws_align_on_any_bit_generator(self, make, half):
        # a 32-bit draw may leave half a 64-bit step buffered, which a
        # PCG64 advance would drop
        for seed in range(20):
            rng, ref = make(seed), make(seed)
            if half:
                rng.integers(0, 2**32, dtype=np.uint32)
                ref.integers(0, 2**32, dtype=np.uint32)
            _, times = reference_schedule(ref, 4320)
            got = synth_schedule(rng, 4320, horizon=50000.0)
            assert got.tolist() == times[times <= 50000.0].tolist()
            assert rng.integers(0, 2**32, 3, dtype=np.uint32).tolist() == (
                ref.integers(0, 2**32, 3, dtype=np.uint32).tolist()
            )
            assert _bits(rng.random(64)) == _bits(ref.random(64))


class TestDiscreteContinuousLinkage:
    def test_dense_discrete_windows_are_continuous_stays_at_inflated_radius(self):
        # records on the exact path: a pairwise-close record window spanning
        # the dwell threshold certifies a continuous dwell once the radius
        # absorbs what the path can do between samples (gap * speed on legs)
        config = CtrwConfig(seed=25)
        path = generate_ctrw(config)
        rng = np.random.default_rng(77)
        times = synth_schedule(rng, 400, gap_min=60.0, gap_max=7200.0)
        times = times[times <= path.duration]
        traj = observe(path, times)
        for p, q in dense_stay_windows(traj, PARAMS, ref_lat=path.origin_lat):
            eps = float(np.diff(traj.times[p : q + 1]).max())
            inflated = MobilityParams(
                PARAMS.delta_s + 2.0 * eps * config.speed, PARAMS.delta_t
            )
            inside = traj.times[p : q + 1].astype(np.float64)
            got = continuous_labels(path, inside, inflated)
            assert (got == LABEL_STAY).all()


#: seed ints of 1 to 7 words, with the word boundaries named
SEED_INTS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**200))
#: keys of 1 to more than 4 words: an int, or a tuple of 1 to 6 ints
SEED_KEYS = st.one_of(SEED_INTS, st.lists(SEED_INTS, min_size=1, max_size=6).map(tuple))


class TestSeeded:
    """``seeded`` against ``np.random.default_rng``, key by key."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(SEED_KEYS, min_size=1, max_size=12))
    @example([0, 2**32 - 1, 2**32, 2**64, 2**200, (0,), (0, 0, 0, 0), (1, 2, 3, 4, 5)])
    @example([(2**64, 2**64, 7), (2**200,) * 6, (2**32 - 1,) * 5])
    def test_equals_default_rng(self, keys):
        got = list(seeded(keys))
        assert len(got) == len(keys)
        for key, rng in zip(keys, got):
            ref = np.random.default_rng(key)
            assert rng.bit_generator.state == ref.bit_generator.state, key
            assert _bits(rng.random(7)) == _bits(ref.random(7)), key
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62), key
            # synth_schedule's skip: an advance of the bit generator
            _skip_uniforms(rng, 1000)
            ref.random(1000)
            assert _bits(rng.random(3)) == _bits(ref.random(3)), key

    def test_builds_each_generator_when_asked(self):
        streams = seeded([(5, 1), (5, 2)])
        assert iter(streams) is streams
        first = next(streams).random(4)
        assert _bits(first) == _bits(np.random.default_rng((5, 1)).random(4))
        assert list(seeded([])) == []

    @pytest.mark.parametrize(
        "key, error", [(-1, ValueError), ((3, -1), ValueError), (1.5, TypeError)]
    )
    def test_refuses_what_default_rng_refuses(self, key, error):
        with pytest.raises(error):
            np.random.default_rng(key)
        with pytest.raises(error):
            seeded([key])
