"""End-to-end guarantees of the shipped package, one test per promise.

Run with ``pytest -v`` to get one pass/fail line per guarantee. Each test
also prints the quantities it measured (counts, rates, wall time) so a
failing line carries its evidence.
"""
import time

import numpy as np
import pytest

from helpers import (
    enumerate_best_score,
    fold_path_score,
    minutes,
    random_trajectory,
    traj_from_meters,
    travel_condition_all,
    write_records_csv,
)
from sparsemob.baselines import viterbi
from sparsemob.cli import main
from sparsemob.core import LABEL_STAY, LABEL_TRAVEL, MobilityParams
from sparsemob.evaluate import (
    DEFAULT_RATES,
    ExperimentConfig,
    experiment_trajectory,
    prop1_violation_rate,
    resampling_experiment,
)
from sparsemob.oracle import exact_label
from sparsemob import sds
from sparsemob.sds import sds_label
from sparsemob.simulate import CtrwConfig, generate_ctrw, observe, synth_schedule

PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)


@pytest.fixture(scope="module")
def experiment():
    """1,000 synthetic trajectories scored at retention rates 1.0 down to 0.1."""
    config = ExperimentConfig(trajectories=1000, rates=DEFAULT_RATES)
    start = time.perf_counter()
    rows = resampling_experiment(config)
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_c1_prediction_precision_exact_at_every_rate(experiment):
    rows, elapsed = experiment
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s, budget 120s"
    top = rows[0]
    assert top.rate == 1.0
    assert top.stay_predicted > 0 and top.travel_predicted > 0
    for row in rows:
        # zero false positives tolerated at any sparsity
        assert row.stay_correct == row.stay_predicted, f"rate {row.rate}"
        assert row.travel_correct == row.travel_predicted, f"rate {row.rate}"
        if row.stay_predicted:
            assert row.stay_precision == 1.0
        if row.travel_predicted:
            assert row.travel_precision == 1.0
    print(
        f"\n[c1] 1000 trajectories, 10 rates, {elapsed:.1f}s; "
        f"stay/travel precision 1.0 at every rate "
        f"({top.stay_predicted} stay and {top.travel_predicted} travel "
        f"predictions at full density)"
    )


def test_c2_recall_degrades_with_sparsity(experiment):
    rows, _ = experiment
    assert [row.rate for row in rows] == list(DEFAULT_RATES)
    stay = [row.stay_recall for row in rows]
    travel = [row.travel_recall for row in rows]
    assert None not in stay and None not in travel
    assert stay[-1] < stay[0], f"stay recall {stay[-1]} !< {stay[0]}"
    assert travel[-1] < travel[0], f"travel recall {travel[-1]} !< {travel[0]}"
    for name, series in (("stay", stay), ("travel", travel)):
        for a, b in zip(series, series[1:]):
            assert b <= a + 0.02, f"{name} recall rose beyond noise: {a} -> {b}"
    print(
        f"\n[c2] stay recall {stay[0]:.3f} -> {stay[-1]:.3f}, "
        f"travel recall {travel[0]:.3f} -> {travel[-1]:.3f}, "
        "non-increasing within 2pp per step"
    )


def test_c3_labels_sound_against_exhaustive_oracle():
    rng = np.random.default_rng(20240823)
    start = time.perf_counter()
    stays = travels = records = 0
    for _ in range(10_000):
        traj = random_trajectory(rng)
        predicted = sds_label(traj, PARAMS).labels
        oracle_stay = exact_label(traj, PARAMS).labels == LABEL_STAY
        predicted_stay = predicted == LABEL_STAY
        assert bool((predicted_stay <= oracle_stay).all())
        predicted_travel = predicted == LABEL_TRAVEL
        checker = travel_condition_all(traj, PARAMS.delta_s, PARAMS.delta_t)
        assert np.array_equal(predicted_travel, checker)
        stays += int(predicted_stay.sum())
        travels += int(predicted_travel.sum())
        records += len(traj)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget 60s"
    assert stays > 0 and travels > 0
    print(
        f"\n[c3] 10000 trajectories, {records} records in {elapsed:.1f}s: "
        f"{stays} stays all inside the oracle's, "
        f"{travels} travel flags equal to the pairwise checker"
    )


def test_c4_decoder_matches_exhaustive_enumeration():
    rng = np.random.default_rng(20240824)
    n_symbols = 4
    start = time.perf_counter()
    for _ in range(1000):
        initial = rng.random(2) + 0.05
        initial /= initial.sum()
        transition = rng.random((2, 2)) + 0.05
        transition /= transition.sum(axis=1, keepdims=True)
        emission = rng.random((2, n_symbols)) + 0.05
        if rng.random() < 0.25:
            emission[rng.integers(0, 2), rng.integers(0, n_symbols)] = 0.0
        emission /= emission.sum(axis=1, keepdims=True)
        symbols = rng.integers(0, n_symbols, size=int(rng.integers(1, 9)))
        states, score = viterbi(initial, transition, emission, symbols)
        assert score == enumerate_best_score(initial, transition, emission, symbols)
        assert (
            fold_path_score(initial, transition, emission, list(states), symbols)
            == score
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"decoder sweep took {elapsed:.1f}s, budget 30s"
    print(f"\n[c4] 1000 random models decoded, scores exactly equal, {elapsed:.1f}s")


def test_c5_leave_one_out_violations_absent_on_simulated_data():
    grid = [PARAMS, MobilityParams(1600.0, 1800.0), MobilityParams(800.0, 3600.0)]
    exact_cfg = ExperimentConfig(trajectories=12)
    exact = [
        experiment_trajectory(exact_cfg, i, with_truth=False)[1]
        for i in range(exact_cfg.trajectories)
    ]
    results = prop1_violation_rate(exact, grid, ref_lat=39.9)

    # Keep the position-noise bound small next to delta_s. A removed dwell
    # record can sit up to 2x the bound farther from a window member than
    # its dwell-mates do, so a generous bound manufactures boundary
    # violations that say nothing about the harness.
    jitter_cfg = ExperimentConfig(
        trajectories=8, walk=CtrwConfig(jump_min=1600.0, jitter_radius=25.0)
    )
    jittered = [
        experiment_trajectory(jitter_cfg, i, with_truth=False)[1]
        for i in range(jitter_cfg.trajectories)
    ]
    results_jittered = prop1_violation_rate(jittered, [PARAMS], ref_lat=39.9)

    tested = 0
    for res in list(results.values()) + list(results_jittered.values()):
        assert res.violations == 0
        assert res.rate == 0.0
        tested += res.tested
    assert tested > 0
    print(
        f"\n[c5] leave-one-out: {tested} covered records across "
        f"{len(grid)} threshold pairs plus a 25m-jitter corpus, 0 violations"
    )


def _scaling_corpus(devices: int, records_per: int, seed: int):
    out = []
    for d in range(devices):
        rng = np.random.default_rng((seed, d))
        times = synth_schedule(rng, records_per)
        walk = CtrwConfig(
            duration=float(times[-1] + 1), seed=int(rng.integers(0, 2**62))
        )
        out.append(observe(generate_ctrw(walk), times, device=f"d{d:04d}"))
    return out


def _label_time(corpus) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for traj in corpus:
            sds_label(traj, PARAMS, ref_lat=39.9)
        best = min(best, time.perf_counter() - start)
    return best


def _scalar_work(monkeypatch, corpus) -> int:
    """The kernel's record-by-record steps while labeling ``corpus``: calls
    of ``sds._far_scan``, in either direction, and cursors of
    ``sds._stay_run``."""
    work = [0]

    def count(fn, steps):
        def counted(*args):
            work[0] += steps(*args)
            return fn(*args)

        return counted

    def cursors(xs, ys, boxes, esc2, start, end):
        return end - start

    with monkeypatch.context() as patch:
        patch.setattr(sds, "_far_scan", count(sds._far_scan, lambda *args: 1))
        patch.setattr(sds, "_stay_run", count(sds._stay_run, cursors))
        for traj in corpus:
            sds_label(traj, PARAMS, ref_lat=39.9)
    return work[0]


def test_c6_labeling_runtime_near_linear_in_dataset_size(monkeypatch):
    # beside the timing, which host noise can move, a count it cannot: the
    # record-by-record steps were 923 (912 scans, 11 stay cursors) on the
    # 1e5 corpus and 8,599 (8,460 and 139) on the 1e6 one, 9.3x, bounded
    # at the 10x of linear growth
    small = _scaling_corpus(100, 1000, seed=11)
    big = _scaling_corpus(1000, 1000, seed=12)
    n_small = sum(len(t) for t in small)
    n_big = sum(len(t) for t in big)
    assert n_small == 100_000 and n_big == 1_000_000
    w_small = _scalar_work(monkeypatch, small)
    w_big = _scalar_work(monkeypatch, big)
    assert w_big <= 10 * w_small, f"10x data took {w_big / w_small:.2f}x the scalar steps"
    t_small = _label_time(small)
    t_big = _label_time(big)
    ratio = t_big / t_small
    assert ratio <= 12.0, f"10x data took {ratio:.1f}x time"
    note = ""
    if t_big > 10.0:
        note = f" (warning: 1e6 records took {t_big:.1f}s, soft target is 10s)"
        print(note)
    print(
        f"\n[c6] labeling 1e5 in {t_small:.2f}s, 1e6 in {t_big:.2f}s, "
        f"ratio {ratio:.1f}x <= 12x; scalar steps {w_small} and {w_big}, "
        f"{w_big / w_small:.2f}x <= 10x{note}"
    )


def _dense_walk(records: int, seed: int):
    """One walk observed at 1 Hz for ``records`` seconds: dwells of 1,200 s,
    shorter than delta_t, between 3 km jumps (300 s legs), so that most
    records are Travel and a witness scan may reach 3,599 records."""
    walk = CtrwConfig(
        wait_min=1200.0,
        wait_max=1200.5,
        jump_min=3000.0,
        jump_max=3000.5,
        duration=float(records),
        seed=seed,
    )
    times = np.arange(records, dtype=np.int64)
    return [observe(generate_ctrw(walk), times, device="dense")]


def _dwell_after_excursion(records: int):
    """A 1 Hz dwell inside a few tens of meters, after one gradual excursion
    500 m out and back at 1 m/s early on."""
    rng = np.random.default_rng(21)
    x = rng.normal(0.0, 10.0, records)
    y = rng.normal(0.0, 10.0, records)
    out = np.arange(500.0)
    x[600:1600] += np.concatenate((out, out[::-1]))
    return [traj_from_meters(np.arange(records), x, y, device="dwell")]


def _cells(monkeypatch, corpus, ref_lat) -> int:
    """Cells (queries x band rows) the lockstep scans test while labeling
    ``corpus``, counted at ``sds._first_reach``."""
    cells = [0]
    first_reach = sds._first_reach

    def counted(boxes, cx, cy, r2, start, stop, step):
        cells[0] += len(start) * (int(((stop - start) * step).max()) + 1)
        return first_reach(boxes, cx, cy, r2, start, stop, step)

    with monkeypatch.context() as patch:
        patch.setattr(sds, "_first_reach", counted)
        for traj in corpus:
            sds_label(traj, PARAMS, ref_lat=ref_lat)
    return cells[0]


def test_c6_dense_labeling_runtime_linear_at_fixed_delta_t(monkeypatch):
    # c6's corpora hold about 30 records per delta_t; at 1 Hz each holds
    # 3,600, and the cost per record must not grow with the trajectory's
    # length. Beside the timing, the cells the lockstep scans test give a
    # bound that host noise cannot move: 479,210 for 6,000 records and
    # 2,214,300 for 24,000 (4.6x, the longer walk holding more legs), and
    # 33,837 (0.39 per record) on a day-long dwell after an excursion.
    small = _dense_walk(6_000, seed=13)
    big = _dense_walk(24_000, seed=13)
    t_small = _label_time(small)
    t_big = _label_time(big)
    ratio = t_big / t_small
    assert ratio <= 12.0, f"4x dense data took {ratio:.1f}x time"
    c_small = _cells(monkeypatch, small, 39.9)
    c_big = _cells(monkeypatch, big, 39.9)
    assert c_big <= 5 * c_small, f"4x dense data tested {c_big / c_small:.2f}x the cells"
    c_dwell = _cells(monkeypatch, _dwell_after_excursion(86_400), 0.0)
    assert c_dwell <= 4 * 86_400, f"{c_dwell / 86_400:.1f} cells per dwell record"
    print(
        f"\n[c6 dense] labeling 6,000 records at 1 Hz in {t_small:.3f}s, "
        f"24,000 in {t_big:.3f}s, ratio {ratio:.1f}x <= 12x; cells "
        f"{c_big / c_small:.2f}x <= 5x, {c_dwell / 86_400:.2f} per dwell record <= 4"
    )


def test_c7_hand_traced_fixtures():
    stay = traj_from_meters(
        minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0], device="s"
    )
    assert "".join(sds_label(stay, PARAMS).letters()) == "SSSSU"
    assert "".join(exact_label(stay, PARAMS).letters()) == "SSSST"
    travel = traj_from_meters(minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device="t")
    assert "".join(sds_label(travel, PARAMS).letters()) == "UTU"
    print("\n[c7] hand-traced fixtures reproduce: SSSSU / SSSST and UTU")


def _twice(tmp, name, build_args, outputs):
    """Run a command twice into fresh dirs; outputs must match byte for byte."""
    produced = {}
    for attempt in (0, 1):
        sub = tmp / f"{name}{attempt}"
        sub.mkdir()
        paths = {key: sub / fname for key, fname in outputs.items()}
        args = build_args(paths)
        assert main(args) == 0, (name, args)
        produced[attempt] = paths
    for key in outputs:
        a = produced[0][key].read_bytes()
        b = produced[1][key].read_bytes()
        assert a == b, f"{name}: output {key} differs between identical runs"
    return produced[0]


def test_c8_cli_byte_identical_across_reruns_and_workers(tmp_path):
    dense = traj_from_meters(minutes(0, 10, 25, 40, 50), [0.0] * 5, device="dense")
    medium = traj_from_meters(
        [0, 600, 1200, 2400], [0.0, 300.0, 0.0, 300.0], device="medium"
    )
    stay = traj_from_meters(
        minutes(0, 10, 25, 40, 50), [0.0, 50.0, 90.0, 30.0, 1000.0], device="stay"
    )
    travel = traj_from_meters(
        minutes(0, 10, 20), [0.0, 1000.0, 2000.0], device="travel"
    )
    records = write_records_csv(tmp_path / "records.csv", [dense, medium, stay, travel])

    lab = _twice(
        tmp_path, "label",
        lambda o: ["label", records, "--out", str(o["labels"])],
        {"labels": "labels.csv"},
    )
    multi = tmp_path / "label_multi.csv"
    assert main(["label", records, "--workers", "2", "--out", str(multi)]) == 0
    assert multi.read_bytes() == lab["labels"].read_bytes()

    orc = _twice(
        tmp_path, "oracle",
        lambda o: ["oracle", records, "--out", str(o["labels"])],
        {"labels": "oracle.csv"},
    )
    _twice(
        tmp_path, "stats",
        lambda o: [
            "stats", records,
            "--out", str(o["stats"]),
            "--sparsity-out", str(o["sparsity"]),
            "--delta-t-grid", "1800,600",
        ],
        {"stats": "stats.csv", "sparsity": "sparsity.csv"},
    )
    _twice(
        tmp_path, "bounds",
        lambda o: ["bounds", records, "--out", str(o["bounds"])],
        {"bounds": "bounds.csv"},
    )
    _twice(
        tmp_path, "prop1",
        lambda o: [
            "prop1", records, "--delta-s-grid", "800,1600", "--out", str(o["out"])
        ],
        {"out": "prop1.csv"},
    )
    _twice(
        tmp_path, "resample",
        lambda o: [
            "resample", records,
            "--rate", "0.6",
            "--seed", "5",
            "--labels", str(lab["labels"]),
            "--labels-out", str(o["sublab"]),
            "--out", str(o["sub"]),
        ],
        {"sub": "sub.csv", "sublab": "sublab.csv"},
    )

    sim = _twice(
        tmp_path, "simulate",
        lambda o: [
            "simulate",
            "--trajectories", "2",
            "--duration", "30000",
            "--out", str(o["rec"]),
            "--labels-out", str(o["lab"]),
        ],
        {"rec": "rec.csv", "lab": "lab.csv"},
    )
    pred = _twice(
        tmp_path, "simlabel",
        lambda o: ["label", str(sim["rec"]), "--out", str(o["pred"])],
        {"pred": "pred.csv"},
    )
    _twice(
        tmp_path, "evalfiles",
        lambda o: [
            "evaluate",
            "--predictions", str(pred["pred"]),
            "--truth", str(sim["lab"]),
            "--out", str(o["metrics"]),
        ],
        {"metrics": "metrics.csv"},
    )

    exp = _twice(
        tmp_path, "experiment",
        lambda o: [
            "evaluate", "--experiment",
            "--trajectories", "3",
            "--duration", "30000",
            "--rates", "1.0,0.5",
            "--out", str(o["rates"]),
        ],
        {"rates": "rates.csv"},
    )
    exp_multi = tmp_path / "rates_multi.csv"
    code = main(
        [
            "evaluate", "--experiment",
            "--trajectories", "3",
            "--duration", "30000",
            "--rates", "1.0,0.5",
            "--workers", "3",
            "--out", str(exp_multi),
        ]
    )
    assert code == 0
    assert exp_multi.read_bytes() == exp["rates"].read_bytes()

    voting = _twice(
        tmp_path, "voting",
        lambda o: [
            "baseline", "--method", "voting",
            "--train-records", records,
            "--train-labels", str(orc["labels"]),
            "--save-model", str(o["model"]),
            "--records", records,
            "--out", str(o["pred"]),
        ],
        {"model": "vmodel.csv", "pred": "vpred.csv"},
    )
    _twice(
        tmp_path, "votingload",
        lambda o: [
            "baseline", "--method", "voting",
            "--load-model", str(voting["model"]),
            "--records", records,
            "--out", str(o["pred"]),
        ],
        {"pred": "vpred2.csv"},
    )
    _twice(
        tmp_path, "hmm",
        lambda o: [
            "baseline", "--method", "hmm",
            "--train-records", records,
            "--train-labels", str(orc["labels"]),
            "--save-model", str(o["model"]),
            "--records", records,
            "--out", str(o["pred"]),
        ],
        {"model": "hmodel.csv", "pred": "hpred.csv"},
    )
    print(
        "\n[c8] label/oracle/stats/bounds/prop1/resample/simulate/evaluate/"
        "baseline all byte-identical on rerun, including multi-worker runs"
    )
