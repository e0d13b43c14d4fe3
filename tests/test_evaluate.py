"""Metrics, the rate-sweep experiment, the leave-one-out check, and reports."""
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    dense_trajectory,
    minutes,
    one_hz_path,
    projected_corpus,
    random_trajectory,
    reference_local_consistency_check,
    reference_trajectory_counts,
    stay_flags_at,
    traj_from_meters,
    trajectory_bounds,
    travel_flags_at,
    windowed_local_consistency_check,
)
from sparsemob.core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    MobilityParams,
    Trajectory,
    planar,
    radii,
)
from sparsemob import sds
from sparsemob.cli import main
from sparsemob.evaluate import (
    BATCH_RECORDS,
    ConfusionCounts,
    ExperimentConfig,
    LocalConsistencyResult,
    MetricsReport,
    RateOutcome,
    _trajectory_counts,
    compute_metrics,
    coverages,
    experiment_trajectory,
    harmonic_mean,
    local_consistency_check,
    mean_gaps,
    resampling_experiment,
    sparsity_report,
    spans,
)
from sparsemob.sds import sds_label
from sparsemob.simulate import CtrwConfig, resample

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)

S, T, U = LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED


def codes(*values):
    return np.array(values, dtype=np.int8)


def check_one(traj, params, ref_lat=None) -> LocalConsistencyResult:
    """``local_consistency_check`` of one trajectory, projected by ``planar``."""
    x, y = planar(traj, ref_lat)
    return local_consistency_check(x, y, traj.times, [len(traj)], params)


class TestHarmonicMean:
    def test_mixed_f1(self):
        assert harmonic_mean(0.9, 0.6) == pytest.approx(0.72)

    def test_both_zero_is_zero(self):
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_undefined_operand_propagates(self):
        assert harmonic_mean(None, 0.5) is None
        assert harmonic_mean(0.5, None) is None

    def test_f1_from_precision_recall(self):
        assert harmonic_mean(1.0, 0.5) == pytest.approx(2 / 3)


class TestConfusionCounts:
    def test_from_labels(self):
        truth = codes(S, S, S, T, T)
        predicted = codes(S, T, U, T, S)
        c = ConfusionCounts.from_labels(truth, predicted)
        assert (c.true_stay, c.false_travel, c.unlabeled_stay) == (1, 1, 1)
        assert (c.true_travel, c.false_stay, c.unlabeled_travel) == (1, 1, 0)
        assert c.total == 5

    def test_truth_must_be_decided(self):
        with pytest.raises(ValueError):
            ConfusionCounts.from_labels(codes(S, U), codes(S, S))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts.from_labels(codes(S, S), codes(S))

    def test_partition_identity_without_abstention(self, rng):
        # the four decided cells partition the records when nothing abstains
        for _ in range(30):
            n = int(rng.integers(1, 60))
            truth = rng.choice([S, T], size=n).astype(np.int8)
            predicted = rng.choice([S, T], size=n).astype(np.int8)
            c = ConfusionCounts.from_labels(truth, predicted)
            assert (
                c.true_stay + c.false_stay + c.true_travel + c.false_travel == n
            )


class TestComputeMetrics:
    def test_perfect_predictions(self):
        truth = codes(S, S, T, T)
        report = compute_metrics(truth, truth)
        assert report.stay_precision == 1.0
        assert report.stay_recall == 1.0
        assert report.travel_precision == 1.0
        assert report.travel_recall == 1.0
        assert report.accuracy == 1.0
        assert report.f1_accuracy == 1.0

    def test_all_stay_against_mostly_stay_truth(self):
        truth = codes(*([S] * 8 + [T] * 2))
        predicted = codes(*([S] * 10))
        report = compute_metrics(predicted, truth)
        assert report.stay_precision == pytest.approx(0.8)
        assert report.stay_recall == 1.0
        assert report.travel_precision is None
        assert report.travel_recall == 0.0
        assert report.accuracy == pytest.approx(0.8)

    def test_abstention_hits_recall_not_precision(self):
        truth = codes(S, S, S, S)
        predicted = codes(S, S, U, U)
        report = compute_metrics(predicted, truth)
        assert report.stay_precision == 1.0
        assert report.stay_recall == pytest.approx(0.5)
        assert report.accuracy == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            compute_metrics(codes(S, S), codes(S, S, T))

    def test_ratio_identities_over_random_tables(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 80))
            truth = rng.choice([S, T], size=n).astype(np.int8)
            predicted = rng.choice([S, T, U], size=n).astype(np.int8)
            c = ConfusionCounts.from_labels(truth, predicted)
            r = MetricsReport.from_counts(c)
            if r.stay_precision is not None:
                predicted_stays = c.true_stay + c.false_stay
                assert r.stay_precision * predicted_stays == pytest.approx(c.true_stay)
            if r.accuracy is not None:
                assert r.accuracy == pytest.approx(
                    (c.true_stay + c.true_travel) / c.total
                )

    def test_zero_counts_all_undefined(self):
        r = MetricsReport.from_counts(ConfusionCounts())
        assert r.stay_precision is None
        assert r.accuracy is None
        assert r.f1_accuracy is None


class TestRateOutcome:
    def test_ratio_properties(self):
        o = RateOutcome(
            rate=0.5,
            stay_predicted=10,
            stay_correct=9,
            travel_predicted=4,
            travel_correct=4,
            stay_recovered=6,
            stay_recoverable=12,
            travel_recovered=2,
            travel_recoverable=4,
            accurate=11,
            evaluable=16,
            gap_seconds=3200,
            gap_count=8,
        )
        assert o.stay_precision == pytest.approx(0.9)
        assert o.travel_precision == 1.0
        assert o.stay_recall == pytest.approx(0.5)
        assert o.travel_recall == pytest.approx(0.5)
        assert o.accuracy == pytest.approx(11 / 16)
        assert o.mean_gap == pytest.approx(400.0)
        assert o.f1_accuracy is not None

    def test_empty_denominators_undefined(self):
        o = RateOutcome(0.1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert o.stay_precision is None
        assert o.mean_gap is None
        assert o.f1_accuracy is None


class TestExperimentConfig:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rates=(1.2,))
        with pytest.raises(ValueError):
            ExperimentConfig(rates=(-0.1,))

    def test_needs_at_least_one_rate(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rates=())

    def test_trajectory_count_nonnegative(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trajectories=-1)

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)

    def test_joined_times_must_fit_int64(self):
        # one trajectory's rate subsets, joined in time, fit one kernel call;
        # dwells long enough that the walk stays within its cycle bound
        long_dwells = {"wait_min": 2.0**50, "wait_max": 2.0**51}
        with pytest.raises(ValueError, match="overflow"):
            ExperimentConfig(
                walk=CtrwConfig(duration=2.0**62, **long_dwells), rates=(1.0, 0.5)
            )
        ExperimentConfig(walk=CtrwConfig(duration=2.0**61, **long_dwells), rates=(1.0, 0.5))


class TestExperimentTrajectory:
    def test_deterministic_and_named(self):
        config = ExperimentConfig(trajectories=2, walk=CtrwConfig(duration=30000.0))
        _, t1, l1 = experiment_trajectory(config, 1)
        _, t2, l2 = experiment_trajectory(config, 1)
        assert t1.device == "sim00001"
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.lons, t2.lons)
        assert np.array_equal(l1, l2)

    def test_truth_optional(self):
        config = ExperimentConfig(trajectories=1, walk=CtrwConfig(duration=30000.0))
        _, _, truth = experiment_trajectory(config, 0, with_truth=False)
        assert truth is None

    def test_indices_independent(self):
        config = ExperimentConfig(trajectories=3, walk=CtrwConfig(duration=30000.0))
        _, a, _ = experiment_trajectory(config, 0, with_truth=False)
        _, b, _ = experiment_trajectory(config, 2, with_truth=False)
        assert not (len(a) == len(b) and np.array_equal(a.times, b.times))


@pytest.fixture(scope="module")
def outcomes():
    config = ExperimentConfig(
        trajectories=6,
        walk=CtrwConfig(duration=60000.0),
        rates=(1.0, 0.6, 0.3),
    )
    return resampling_experiment(config), config


class TestResamplingExperiment:
    def test_exact_precision_at_every_rate(self, outcomes):
        rows, _ = outcomes
        for row in rows:
            if row.stay_predicted:
                assert row.stay_precision == 1.0
            if row.travel_predicted:
                assert row.travel_precision == 1.0

    def test_full_rate_row_matches_direct_recount(self, outcomes):
        # rebuild the rate-1.0 recall counts record by record from the
        # library primitives the experiment composes
        rows, config = outcomes
        stay_rec = stay_pool_total = travel_rec = travel_pool_total = 0
        for index in range(config.trajectories):
            path, traj, truth = experiment_trajectory(config, index)
            ref = path.origin_lat
            labels = sds_label(traj, config.params, ref_lat=ref).labels
            r = radii(config.params)
            pool = stay_flags_at(traj, config.params, r.dense, ref_lat=ref)
            tpool = travel_flags_at(
                traj, config.params, r.travel_pool, ref_lat=ref
            ) & (truth == T)
            stay_rec += int(((labels == S) & pool).sum())
            stay_pool_total += int(pool.sum())
            travel_rec += int(((labels == T) & tpool).sum())
            travel_pool_total += int(tpool.sum())
        top = rows[0]
        assert top.rate == 1.0
        assert top.stay_recovered == stay_rec
        assert top.stay_recoverable == stay_pool_total
        assert top.travel_recovered == travel_rec
        assert top.travel_recoverable == travel_pool_total

    def test_mean_gap_grows_as_rate_drops(self, outcomes):
        rows, _ = outcomes
        gaps = [row.mean_gap for row in rows]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_deterministic_and_worker_invariant(self, outcomes):
        from dataclasses import replace

        rows, config = outcomes
        again = resampling_experiment(config)
        parallel = resampling_experiment(replace(config, workers=2))
        for a, b, c in zip(rows, again, parallel):
            assert a == b == c

    def test_refuses_settings_its_truth_cannot_support(self, monkeypatch):
        def built(*args):
            raise AssertionError("a trajectory was built")

        monkeypatch.setattr("sparsemob.evaluate._trajectory_counts", built)
        config = ExperimentConfig(
            params=MobilityParams(delta_s=900.0), trajectories=5, rates=(1.0,)
        )
        with pytest.raises(
            ValueError, match="jump_min 800.0 is below the spatial threshold 900.0"
        ):
            resampling_experiment(config)

    @pytest.mark.parametrize("workers, trajectories, size", [(8, 2, 2), (2, 3, 2)])
    def test_pool_no_larger_than_the_trajectory_count(
        self, monkeypatch, workers, trajectories, size
    ):
        sizes = []

        class InProcessPool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        class Context:
            def Pool(self, processes):
                sizes.append(processes)
                return InProcessPool()

        config = ExperimentConfig(
            trajectories=trajectories,
            walk=CtrwConfig(duration=30000.0),
            rates=(1.0, 0.5),
            workers=workers,
        )
        alone = resampling_experiment(replace(config, workers=1))
        # evaluate imports multiprocessing only where it starts a pool
        monkeypatch.setattr("multiprocessing.get_context", lambda method: Context())
        assert resampling_experiment(config) == alone
        assert sizes == [size]

    def test_zero_trajectories_gives_empty_counts(self):
        config = ExperimentConfig(
            trajectories=0, walk=CtrwConfig(duration=30000.0), rates=(1.0, 0.5)
        )
        rows = resampling_experiment(config)
        assert [r.rate for r in rows] == [1.0, 0.5]
        assert rows[0].stay_precision is None
        assert rows[0].evaluable == 0


class TestTrajectoryCounts:
    """The batched counts against the per-rate composition of public calls."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Record counts of the labeler calls, appended as they are made."""
        calls = []
        kernel = sds.label_kernel

        def counted(*args, **kwargs):
            calls.append(len(args[2]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sds, "label_kernel", counted)
        return calls

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(trajectories=8),
            ExperimentConfig(
                trajectories=8,
                params=MobilityParams(delta_s=300.0, delta_t=600.5),
                seed=3,
            ),
            ExperimentConfig(
                trajectories=8,
                walk=CtrwConfig(duration=60000.0, jitter_radius=30.0),
                rates=(1.0, 0.0, 0.05, 1.0),
                seed=17,
            ),
            # every observation time lies past the walk's end
            ExperimentConfig(trajectories=2, walk=CtrwConfig(duration=30.0)),
        ],
        ids=["default", "fractional-delta-t", "zero-and-repeated-rates", "no-records"],
    )
    def test_match_reference(self, config):
        n = config.trajectories
        want = [reference_trajectory_counts(config, i) for i in range(n)]
        for index in range(n):
            got = _trajectory_counts(config, range(index, index + 1))
            assert got.dtype == want[index].dtype
            assert got.tolist() == want[index].tolist(), index
        for part in (range(n), range(n // 2, n)):
            got = _trajectory_counts(config, part)
            assert got.tolist() == np.sum(want[part.start :], axis=0).tolist()

    def test_match_reference_on_tiny_subsets(self):
        config = ExperimentConfig(
            trajectories=12, walk=CtrwConfig(duration=400.0), rates=(0.5, 0.2, 0.0, 1.0)
        )
        sizes = set()
        want = np.zeros((len(config.rates), 12), dtype=np.int64)
        for index in range(config.trajectories):
            _, traj, _ = experiment_trajectory(config, index, with_truth=False)
            for pos, rate in enumerate(config.rates):
                rng = np.random.default_rng((config.seed, index, pos))
                sizes.add(len(resample(traj, rate, rng)[0]))
            want += reference_trajectory_counts(config, index)
        assert {0, 1} <= sizes
        got = _trajectory_counts(config, range(config.trajectories))
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("rates", [(1.0, 0.5, 0.0), (0.0,), (0.5, 1.0)])
    def test_constant_masks_build_no_generator(self, monkeypatch, rates):
        # a uniform is always below 1.0 and never below 0.0, so those rates'
        # masks are constant and their generators, seeded (seed, index,
        # rate position), are never built
        config = ExperimentConfig(trajectories=5, rates=rates, seed=11)
        want = sum(reference_trajectory_counts(config, i) for i in range(5))
        seeds = []
        default_rng = np.random.default_rng

        def recorded(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        got = _trajectory_counts(config, range(config.trajectories))
        assert got.tolist() == want.tolist()
        drawn = {s[2] for s in seeds if isinstance(s, tuple) and len(s) == 3}
        assert drawn == {k for k, rate in enumerate(rates) if rate == 0.5}

    def test_zero_record_trajectory_inside_a_batch(self, kernel_calls):
        # the first observation often falls past a 200 s walk's end
        config = ExperimentConfig(
            trajectories=10, walk=CtrwConfig(duration=200.0), rates=(1.0, 0.0, 0.5, 1.0)
        )
        lengths = [
            len(experiment_trajectory(config, i, with_truth=False)[1])
            for i in range(config.trajectories)
        ]
        first = next(i for i, n in enumerate(lengths) if n)
        assert 0 in lengths[first:] and sum(lengths) > 0
        want = sum(reference_trajectory_counts(config, i) for i in range(10))
        kernel_calls.clear()
        got = _trajectory_counts(config, range(config.trajectories))
        assert got.tolist() == want.tolist()
        # one batch: one call per radius pair
        assert len(kernel_calls) == 3

    # "exact": the first two trajectories fill the budget to the record
    @pytest.mark.parametrize("budget", [1, 700, 1500, "exact"])
    def test_budget_flushes_mid_range(self, monkeypatch, kernel_calls, budget):
        config = ExperimentConfig(trajectories=6, rates=(1.0, 0.3, 0.0, 0.3))
        lengths = [
            len(experiment_trajectory(config, i, with_truth=False)[1])
            for i in range(config.trajectories)
        ]
        if budget == "exact":
            budget = lengths[0] + lengths[1]
        want = sum(reference_trajectory_counts(config, i) for i in range(6))
        monkeypatch.setattr("sparsemob.evaluate.BATCH_RECORDS", budget)
        kernel_calls.clear()
        got = _trajectory_counts(config, range(config.trajectories))
        assert got.tolist() == want.tolist()
        # the batches the budget makes: each flushed before the next
        # trajectory would take it past the budget
        batches = [[]]
        for n in lengths:
            if batches[-1] and sum(batches[-1]) + n > budget:
                batches.append([])
            batches[-1].append(n)
        assert len(batches) > 1
        assert len(kernel_calls) == 3 * len(batches)
        assert kernel_calls[::3] == [sum(b) for b in batches]

    def test_no_call_holds_more_than_the_budget(self, kernel_calls):
        config = ExperimentConfig(trajectories=30, seed=4)
        counts = _trajectory_counts(config, range(config.trajectories))
        # the full rate's gaps: its records less one per trajectory
        assert counts[0, 11] > 2 * BATCH_RECORDS
        assert len(kernel_calls) < config.trajectories
        assert max(kernel_calls) <= BATCH_RECORDS * len(config.rates)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_ranges_equal_one_process(self, workers):
        config = ExperimentConfig(
            trajectories=7, walk=CtrwConfig(duration=60000.0), rates=(1.0, 0.0, 0.5, 1.0)
        )
        alone = resampling_experiment(config)
        assert resampling_experiment(replace(config, workers=workers)) == alone


class TestRecallAccounting:
    def test_full_density_recall_equals_lower_bound(self):
        # with every record kept, the measured stay recall against the
        # recoverable pool reproduces the per-trajectory bound exactly
        config = ExperimentConfig(trajectories=8, walk=CtrwConfig(duration=90000.0))
        nonempty = 0
        for index in range(config.trajectories):
            path, traj, _ = experiment_trajectory(config, index, with_truth=False)
            ref = path.origin_lat
            stay = sds_label(traj, config.params, ref_lat=ref).labels == S
            pool = stay_flags_at(
                traj, config.params, radii(config.params).dense, ref_lat=ref
            )
            bound = trajectory_bounds(traj, config.params, ref_lat=ref)[0]
            assert bool((stay <= pool).all())
            if pool.any():
                nonempty += 1
                measured = int((stay & pool).sum()) / int(pool.sum())
                assert measured == bound
        assert nonempty > 0


class TestProp1:
    def test_constructed_violation_counted(self):
        # dropping the middle record leaves a qualifying dwell window whose
        # span covers the dropped timestamp, yet the excursion was 5 km
        traj = traj_from_meters([0, 900, 1800], [0.0, 5000.0, 0.0])
        r = check_one(traj, PARAMS, ref_lat=0.0)
        assert r.tested == 1
        assert r.violations == 1
        assert r.rate == 1.0

    def test_clean_dwell_not_violated(self):
        traj = traj_from_meters([0, 900, 1800], [0.0, 100.0, 0.0])
        r = check_one(traj, PARAMS, ref_lat=0.0)
        assert r.tested == 1
        assert r.violations == 0
        assert r.rate == 0.0

    def test_record_outside_windows_not_tested(self):
        traj = traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0])
        r = check_one(traj, PARAMS, ref_lat=0.0)
        assert r.tested == 0
        assert r.rate == 0.0

    def test_empty_dataset_rejected(self, tmp_path, capsys):
        # the prop1 command refuses a file with no records before it
        # writes any output
        path, out = tmp_path / "r.csv", tmp_path / "p.csv"
        path.write_text("time,lon,lat,mid\n")
        assert main(["prop1", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "sparsemob: data error: empty dataset\n"
        assert not out.exists()

    def test_zero_rate_on_exact_simulated_reads(self):
        config = ExperimentConfig(trajectories=5, walk=CtrwConfig(duration=90000.0))
        grid = [PARAMS, MobilityParams(1600.0, 1800.0), MobilityParams(800.0, 3600.0)]
        trajs = [
            experiment_trajectory(config, i, with_truth=False)[1]
            for i in range(config.trajectories)
        ]
        columns = projected_corpus(trajs, ref_lat=39.9)
        for params in grid:
            assert local_consistency_check(*columns, params).violations == 0

    def test_zero_rate_with_bounded_jitter(self):
        walk = CtrwConfig(jump_min=1600.0, jitter_radius=100.0, duration=90000.0)
        config = ExperimentConfig(trajectories=4, walk=walk)
        trajs = [
            experiment_trajectory(config, i, with_truth=False)[1] for i in range(4)
        ]
        r = local_consistency_check(*projected_corpus(trajs, ref_lat=39.9), PARAMS)
        assert r.violations == 0

    def test_empty_trajectory_untested(self):
        empty = Trajectory("e", [], [], [])
        assert check_one(empty, PARAMS) == LocalConsistencyResult(0, 0)

    def test_result_rate_zero_when_untested(self):
        assert LocalConsistencyResult(tested=0, violations=0).rate == 0.0

    def test_local_check_counts_consistent(self):
        config = ExperimentConfig(trajectories=3, walk=CtrwConfig(duration=60000.0))
        for i in range(3):
            _, traj, _ = experiment_trajectory(config, i, with_truth=False)
            r = check_one(traj, PARAMS, ref_lat=39.9)
            assert 0 <= r.violations <= r.tested <= max(len(traj) - 2, 0)


#: threshold pairs of the leave-one-out differential tests
LOO_GRID = [
    MobilityParams(300.0, 600.0),
    MobilityParams(800.0, 1800.0),
    MobilityParams(1600.0, 1800.0),
    MobilityParams(800.0, 3600.0),
]


def boundary_trajectory(rng: np.random.Generator, params: MobilityParams) -> Trajectory:
    """Up to 24 records whose gaps sit on and around delta_t (exactly delta_t,
    delta_t + 1, delta_t - 1, halves and thirds), wobbling well inside
    delta_s with some jumps past it."""
    n = int(rng.integers(3, 25))
    dt = int(params.delta_t)
    gaps = rng.choice([dt // 3, dt // 2, dt - 1, dt, dt + 1], size=n - 1)
    times = np.concatenate(([0], np.cumsum(gaps)))

    def axis() -> np.ndarray:
        small = rng.random(n) < 0.75
        scale = np.where(small, params.delta_s / 6.0, params.delta_s)
        return np.cumsum(rng.normal(0.0, 1.0, n) * scale)

    return traj_from_meters(times, axis(), axis())


def ring_trajectory(rng: np.random.Generator, params: MobilityParams) -> Trajectory:
    """A loop whose diameter is close to delta_s, sampled every few seconds:
    every pair can stay within delta_s while the members' bounding box
    reaches past it."""
    n = int(rng.integers(40, 120))
    radius = 0.5 * params.delta_s * rng.uniform(0.9, 1.01)
    angle = 2.0 * np.pi * np.arange(n) / rng.uniform(15.0, 60.0)
    times = np.cumsum(rng.integers(1, int(params.delta_t) // 20, size=n))
    return traj_from_meters(
        times - times[0], radius * np.cos(angle), radius * np.sin(angle)
    )


def spike_trajectory(rng: np.random.Generator, params: MobilityParams) -> Trajectory:
    """A dwell inside delta_s, sampled every few seconds, with a few
    single-record spikes: some at least delta_s away from every record of
    it, some far only from its far side. A spike's removal leaves windows
    that it cut short whole again, and a spike may be the one record that
    the records after it escape."""
    n = int(rng.integers(20, 70))
    times = np.cumsum(rng.integers(1, int(params.delta_t) // 8, size=n))
    x = rng.normal(0.0, params.delta_s / 8.0, n)
    y = rng.normal(0.0, params.delta_s / 8.0, n)
    spikes = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    x[spikes] += params.delta_s * rng.uniform(0.6, 2.0, len(spikes))
    return traj_from_meters(times - times[0], x, y)


def antimeridian_trajectory() -> Trajectory:
    """A dwell at 60N that straddles longitude 180, with one excursion of
    about 1.7 km; unwrapped, its records would lie a globe apart."""
    lons = 179.9995 + 0.001 * np.sin(np.arange(24.0))
    lons[11] += 0.03
    return Trajectory(
        device="am",
        times=np.arange(24) * 300,
        lons=np.where(lons > 180.0, lons - 360.0, lons),
        lats=60.0 + 0.0005 * np.cos(np.arange(24.0)),
    )


def dwell_1hz(n: int = 400) -> Trajectory:
    """1 Hz dwell: ``n`` records inside a 100 m disc."""
    rng = np.random.default_rng(400)
    r = 50.0 * np.sqrt(rng.random(n))
    a = rng.uniform(0.0, 2.0 * np.pi, n)
    return traj_from_meters(np.arange(n), r * np.cos(a), r * np.sin(a))


def assert_matches_reference(traj, params) -> LocalConsistencyResult:
    """The check against both references, which must agree with each other."""
    got = check_one(traj, params)
    want = reference_local_consistency_check(traj, params)
    assert (got.tested, got.violations) == (want.tested, want.violations), params
    windowed = windowed_local_consistency_check(traj, params)
    assert (windowed.tested, windowed.violations) == (want.tested, want.violations), params
    return got


def dense_dwell_with_spikes(rng: np.random.Generator, n: int, radius: float):
    """Planar x, y of ``n`` records in a dwell inside ``radius``, as in
    spike_trajectory, with spikes on 2% of them: some at ``radius`` or more
    from every record of the dwell, some far only from its far side."""
    x = rng.normal(0.0, radius / 8.0, n)
    y = rng.normal(0.0, radius / 8.0, n)
    spikes = rng.random(n) < 0.02
    x[spikes] += radius * rng.uniform(0.6, 2.0, spikes.sum())
    return x, y


class TestLocalConsistencyReference:
    """The one-pass leave-one-out check against the per-removal reference."""

    def test_matches_reference(self):
        rng = np.random.default_rng(515)
        tested = violations = 0
        for params in LOO_GRID:
            trajs = [random_trajectory(rng) for _ in range(40)]
            trajs += [boundary_trajectory(rng, params) for _ in range(40)]
            trajs += [ring_trajectory(rng, params), dense_trajectory(rng, 16)]
            for traj in trajs:
                r = assert_matches_reference(traj, params)
                tested += r.tested
                violations += r.violations
        assert tested > 0 and violations > 0

    def test_spikes_inside_dwells(self):
        # a removed spike leaves records whose heads lie past the window, so
        # the check scans before them; a spike's neighbours escape it, so
        # the check looks again before the removed record
        rng = np.random.default_rng(516)
        tested = violations = 0
        for params in LOO_GRID:
            for _ in range(30):
                r = assert_matches_reference(spike_trajectory(rng, params), params)
                tested += r.tested
                violations += r.violations
        assert tested > 0 and violations > 0

    def test_delta_t_gap_boundaries(self):
        for params in LOO_GRID:
            dt = int(params.delta_t)
            # span exactly delta_t once the middle record is gone
            edge = traj_from_meters([0, dt // 2, dt], [0.0, 5000.0, 0.0])
            r = assert_matches_reference(edge, params)
            assert (r.tested, r.violations) == (1, 1)
            # the gap left by the removal is delta_t + 1
            wide = traj_from_meters([0, dt // 2, dt + 1], [0.0, 0.0, 0.0])
            assert assert_matches_reference(wide, params).tested == 0

    def test_antimeridian_device(self):
        traj = antimeridian_trajectory()
        for params in LOO_GRID:
            r = assert_matches_reference(traj, params)
            assert r.tested > 0
        assert check_one(traj, PARAMS).violations == 1

    def test_dense_dwell_shorter_than_delta_t(self):
        r = assert_matches_reference(dwell_1hz(), MobilityParams(300.0, 600.0))
        assert r.tested == 0

    def test_one_hz_walks_and_loops(self, monkeypatch):
        # 1 Hz walks and loops of about delta_s across, whose heads at
        # delta_s come from the stay pass's whole-array rounds for loose
        # runs of more than a superblock (counted). The reference rebuilds
        # every window per removal, so the draws stay at 300-340 records
        calls = []
        lockstep = sds._stay_lockstep
        monkeypatch.setattr(sds, "_stay_lockstep", lambda *a: calls.append(1) or lockstep(*a))
        rng = np.random.default_rng(517)
        tested = 0
        for params in (MobilityParams(300.0, 120.0), MobilityParams(100.0, 60.0)):
            for kind in ("walk", "loop"):
                n = int(rng.integers(300, 341))
                x = y = np.zeros(n)
                while np.hypot(np.ptp(x), np.ptp(y)) < params.delta_s:  # a loose run
                    x, y = one_hz_path(rng, kind, n, params.delta_s)
                traj = traj_from_meters(np.arange(n), x, y)
                tested += assert_matches_reference(traj, params).tested
        assert tested > 0 and len(calls) == 4

    def test_dense_dwell_longer_than_delta_t(self):
        r = assert_matches_reference(dwell_1hz(), MobilityParams(300.0, 120.0))
        assert (r.tested, r.violations) == (398, 0)

    @pytest.mark.parametrize(
        "params", [MobilityParams(300.0, 600.0), MobilityParams(100.0, 120.0)]
    )
    def test_thousands_of_one_hz_records(self, params):
        # drifts whose heads move every few records, dwells with spikes and
        # with gradual excursions, and loops, against the windowed reference
        # alone: at 600 s the removal loop's scans step over superblocks
        rng = np.random.default_rng((518, int(params.delta_t)))
        tested = violations = 0
        for kind in ("drift", "spikes", "excursions", "loop"):
            n = int(rng.integers(2900, 3100))
            if kind == "spikes":
                x, y = dense_dwell_with_spikes(rng, n, params.delta_s)
            else:
                x, y = one_hz_path(rng, kind, n, params.delta_s)
            traj = traj_from_meters(np.arange(n), x, y)
            got = check_one(traj, params)
            want = windowed_local_consistency_check(traj, params)
            assert (got.tested, got.violations) == (want.tested, want.violations), kind
            tested += got.tested
            violations += got.violations
        assert tested > 0 and violations > 0


def columns(trajs):
    """The times and sizes of trajectories laid out one after another."""
    return np.concatenate([t.times for t in trajs]), [len(t) for t in trajs]


class TestDeviceStats:
    def test_basic_fields(self):
        traj = traj_from_meters(minutes(0, 10, 120, 240, 250), [0.0] * 5)
        times, sizes = columns([traj])
        assert spans(times, sizes).tolist() == [15000]
        assert mean_gaps(times, sizes).tolist() == [pytest.approx(3750.0)]
        assert coverages(times, sizes, PARAMS.delta_t).tolist() == [pytest.approx(0.8)]

    def test_single_record(self):
        times, sizes = columns([traj_from_meters([5], [0.0])])
        assert spans(times, sizes).tolist() == [0]
        assert np.isnan(mean_gaps(times, sizes)).all()
        assert coverages(times, sizes, PARAMS.delta_t).tolist() == [1.0]

    def test_empty(self, tmp_path):
        # a device whose every row is refused has no records and no row:
        # ingest gives each device it keeps one record or more
        from sparsemob.cli import _ingest_columns

        path = tmp_path / "r.csv"
        path.write_text("time,lon,lat,mid\n0,0.0,0.0,a\n0,999.0,0.0,b\n60,0.0,0.0,c\n")
        keys, sizes, times, _, _ = _ingest_columns(str(path), tz_offset=0, strict=False)
        assert (keys, sizes.tolist()) == (["a", "c"], [1, 1])
        assert spans(times, sizes).tolist() == [0, 0]


def report_of(trajs, delta_ts=(PARAMS.delta_t,)):
    """``sparsity_report`` of trajectories, each labeled alone."""
    times, sizes = columns(trajs)
    codes = np.concatenate([sds_label(t, PARAMS).labels for t in trajs])
    return sparsity_report(times, sizes, codes, list(delta_ts))


class TestSparsityReport:
    def test_empty_dataset_rejected(self):
        none = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="empty dataset"):
            sparsity_report(none, [], none.astype(np.int8), [PARAMS.delta_t])

    def test_single_trajectory_single_bucket(self):
        traj = traj_from_meters(minutes(0, 10, 20, 40), [0.0, 5.0, 10.0, 2.0])
        report = report_of([traj])
        assert report.device_counts.sum() == 1
        bucket = int(np.nonzero(report.device_counts)[0][0])
        assert report.mean_records[bucket] == 4.0
        # all four records certify as one dwell cluster
        assert report.stay_fraction[bucket] == 1.0
        assert report.travel_fraction[bucket] == 0.0

    def test_devices_bucketed_by_mean_gap(self):
        fast = traj_from_meters([0, 100, 200], [0.0, 1.0, 2.0], device="fast")
        slow = traj_from_meters([0, 30000, 60000], [0.0, 1.0, 2.0], device="slow")
        report = report_of([fast, slow])
        occupied = np.nonzero(report.device_counts)[0]
        assert len(occupied) == 2
        empty = report.device_counts == 0
        assert np.isnan(report.stay_fraction[empty]).all()
        assert np.isnan(report.mean_records[empty]).all()

    def test_single_record_devices_only_in_coverage(self):
        lone = traj_from_meters([3], [0.0], device="solo")
        pair = traj_from_meters([0, 600], [0.0, 5.0], device="pair")
        report = report_of([lone, pair])
        assert report.device_counts.sum() == 1
        assert report.coverage_counts[PARAMS.delta_t].sum() == 2

    def test_uniform_gaps_full_coverage_mass(self):
        trajs = [
            traj_from_meters(np.arange(6) * 600 + k, np.zeros(6), device=f"d{k}")
            for k in range(5)
        ]
        report = report_of(trajs, [1800.0])
        counts = report.coverage_counts[1800.0]
        assert counts[-1] == 5
        assert counts[:-1].sum() == 0

    def test_multiple_coverage_thresholds(self):
        # gaps of 600 s: never isolated at 1800, every interior record at 300
        traj = traj_from_meters(np.arange(5) * 600, np.zeros(5))
        report = report_of([traj], [1800.0, 300.0])
        assert report.coverage_counts[1800.0][-1] == 1
        loose = report.coverage_counts[300.0]
        assert loose[-1] == 0
        assert loose.sum() == 1

    def test_repeated_threshold_counts_each_device_once(self):
        # a threshold given twice gets one histogram, of each device once
        trajs = [traj_from_meters([0, 600], [0.0, 5.0], device=d) for d in "abc"]
        report = report_of(trajs, [1800.0, 300.0, 1800.0])
        assert sorted(report.coverage_counts) == [300.0, 1800.0]
        assert [c.sum() for c in report.coverage_counts.values()] == [3, 3]

    def test_matches_devices_binned_one_by_one(self, rng):
        trajs = [random_trajectory(rng) for _ in range(40)]
        report = report_of(trajs, [600.0, 1800.0])
        n_bins = len(report.device_counts)
        devices = np.zeros(n_bins, dtype=np.int64)
        records = np.zeros(n_bins, dtype=np.int64)
        mix = np.zeros((n_bins, 3), dtype=np.int64)
        for traj in trajs:
            if len(traj) < 2:
                continue
            xi = np.diff(traj.times).mean()
            b = min(int(np.searchsorted(report.xi_edges, xi, side="right")) - 1, n_bins - 1)
            devices[b] += 1
            records[b] += len(traj)
            labels = sds_label(traj, PARAMS).labels
            mix[b] += [(labels == c).sum() for c in (S, T, U)]
        assert report.device_counts.tolist() == devices.tolist()
        occupied = devices > 0
        means = records[occupied] / devices[occupied]
        assert report.mean_records[occupied].tolist() == means.tolist()
        fractions = mix[occupied] / mix[occupied].sum(axis=1)[:, None]
        assert report.stay_fraction[occupied].tolist() == fractions[:, 0].tolist()
        assert report.travel_fraction[occupied].tolist() == fractions[:, 1].tolist()
        assert report.unlabeled_fraction[occupied].tolist() == fractions[:, 2].tolist()
