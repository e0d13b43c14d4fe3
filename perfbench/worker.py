"""Run each part's ``sparsemob.cli.main(argv)`` repeatedly in a fresh interpreter.

Usage: ``python3 worker.py SRC_DIR JOB_JSON RESULT_JSON``. The job lists the
parts (argv, output file, where to keep the first output), the seconds to
measure and whether to trace. A round calls ``main`` once for every part;
rounds repeat until the seconds have passed. Each call is timed around
``main`` alone, and the output's sha256 is taken after the clock stops.

The reference loop (reference.py) is timed between calls, and each call's
time is also given scaled by the reference runs just before and just after
it to the host's nominal speed. Raw and scaled times are both returned.

Without tracing, one set-up sample is taken between rounds: a fresh
interpreter imports ``sparsemob.cli`` and builds its parser, times that, and
runs the reference loop itself just before and after (``SETUP_SPEED_EXPONENT``
says how its time is scaled). Peak RSS is this process's, so it covers the
import and the commands, not the input generation. With tracing on, the
untraced rounds get half the time and the traced ones the other half; the
per-layer figures are raw times from the traced rounds' spans.
"""
from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import reference, scale

MIN_ROUNDS = 3
SETUP_RUNS = 7
#: Stop starting rounds after this many seconds, whatever the budget.
HARD_STOP_S = 110.0

#: Set-up is imports: file reads and system calls as much as interpreter
#: work, and only part of it slows with the host. Over 30 samples on a
#: 2-vCPU host, its time grew as the reference time to the power 0.44
#: (log-log fit); scaling by the square root cut the samples' spread from
#: 0.17 to 0.05 of their median, where full scaling left it at 0.20.
SETUP_SPEED_EXPONENT = 0.5

SETUP_CODE = """
import io, sys, time
from contextlib import redirect_stderr
sys.path.insert(0, sys.argv[2])
from reference import reference
reference()  # warm-up
before = reference()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sparsemob.cli
with redirect_stderr(io.StringIO()):
    sparsemob.cli.main([])  # builds the parser; no command is a usage error
seconds = time.perf_counter() - t0
print(seconds, before, reference())
"""


class Clock:
    """Scales measured times by the reference loop run around them."""

    def __init__(self) -> None:
        reference()  # warm-up
        self.refresh()

    def refresh(self) -> None:
        self.last = reference()

    def scale(self, seconds: float) -> float:
        """``seconds`` measured since the last reference run, at nominal speed."""
        now = reference()
        scaled = scale(seconds, self.last, now)
        self.last = now
        return scaled


def _sha(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _setup_sample(src: Path) -> tuple[float, float]:
    """Raw and scaled seconds of one fresh-interpreter set-up."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(src), str(Path(__file__).parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, before, after = map(float, proc.stdout.strip().splitlines()[-1].split())
    return seconds, scale(seconds, before, after, SETUP_SPEED_EXPONENT)


def _rounds(main, parts: list[dict], seconds: float, deadline: float, clock: Clock,
            keep: bool, between=None) -> dict:
    """Call ``main`` on every part, round after round, until ``seconds`` have
    passed and MIN_ROUNDS ran. ``between`` runs before each round, off the clock."""
    walls, scaled, codes, shas = ([[] for _ in parts] for _ in range(4))
    start = time.perf_counter()
    rounds = 0
    while True:
        if between is not None:
            between()
            clock.refresh()
        round_start = time.perf_counter()
        for i, part in enumerate(parts):
            output = Path(part["output"])
            output.unlink(missing_ok=True)
            t0 = time.perf_counter()
            code = main(part["argv"])
            wall = time.perf_counter() - t0
            walls[i].append(wall)
            scaled[i].append(clock.scale(wall))
            codes[i].append(code)
            shas[i].append(_sha(output))
            if keep and rounds == 0 and shas[i][0] is not None:
                shutil.copyfile(output, part["keep"])
        rounds += 1
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
        if rounds >= MIN_ROUNDS and now - start >= seconds:
            break
    return {"walls": walls, "scaled": scaled, "codes": codes, "shas": shas}


def _data_rows(path: str) -> int:
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    return max(len(lines) - 1, 0)


def _layer_metrics(tracer) -> dict[str, float]:
    from inputs import dense_segments, window_records
    from tracing import PATCHES, ROOT

    own = tracer.self_times()
    m = {f"{span}_s": own.get(span, 0.0) for _, _, span in PATCHES}
    m["cli.write_s"] = own.get(ROOT, 0.0)  # main outside ingest and labeling
    for span in ("core.trajectory", "oracle.windows"):
        m[f"{span}_calls"] = len(tracer.durations(span))
    label_ms = [1000.0 * d for d in tracer.durations("sds.label")]
    m["sds.label_calls"] = len(label_ms)
    m["sds.label_call_p50_ms"] = statistics.median(label_ms) if label_ms else 0.0
    m["sds.label_call_max_ms"] = max(label_ms, default=0.0)
    m["trace.self_sum_s"] = sum(own.values())

    rows_in = accepted = loo_tested = 0
    segments = window = records = 0
    totals = np.zeros(3, dtype=np.int64)
    for name, args, kwargs, result in tracer.calls:
        if name == "cli.ingest":
            rows_in += _data_rows(args[0])
            accepted += sum(len(t) for t in result)
        elif name == "evaluate.loo":
            loo_tested += result.tested
        elif name == "sds.label":
            traj, params = args[0], args[1]
            segments += dense_segments(traj.times, params.delta_t)
            window += window_records(traj.times, params.delta_t)
            records += len(traj)
            totals += np.bincount(np.asarray(result.labels), minlength=3)[:3]
    core = sys.modules["sparsemob.core"]
    m["cli.rows_in"] = rows_in
    m["cli.rows_rejected"] = rows_in - accepted
    m["evaluate.loo_tested"] = loo_tested
    m["sds.segments"] = segments
    m["sds.window_records_mean"] = window / records if records else 0.0
    m["sds.labels_S"] = int(totals[core.LABEL_STAY])
    m["sds.labels_T"] = int(totals[core.LABEL_TRAVEL])
    m["sds.labels_U"] = int(totals[core.LABEL_UNLABELED])
    return m


def _stay_probe(tracer, sds_module) -> float | None:
    """Time public ``stay_flags_at(..., delta_s/3)`` on the trajectories the
    traced run labeled; None when the entry point is gone."""
    probe = getattr(sds_module, "stay_flags_at", None)
    if probe is None:
        return None
    total = 0.0
    for name, args, kwargs, _ in tracer.calls:
        if name != "sds.label":
            continue
        traj, params = args[0], args[1]
        t0 = time.perf_counter()
        probe(
            traj,
            params,
            params.delta_s / 3.0,
            ref_lat=kwargs.get("ref_lat"),
            tail_flush=kwargs.get("tail_flush", True),
        )
        total += time.perf_counter() - t0
    return total


def run(src: Path, job: dict) -> dict:
    t_start = time.perf_counter()
    sys.path.insert(0, str(src))
    import sparsemob.cli as cli
    import sparsemob.sds as sds_module

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {cli.__file__}, not the package under {src}")
    deadline = t_start + HARD_STOP_S
    parts, seconds = job["parts"], float(job["seconds"])
    trace = bool(job["trace"])
    clock = Clock()
    setup: list[float] = []
    setup_scaled: list[float] = []

    def setup_between() -> None:
        if len(setup) < SETUP_RUNS * 2:
            raw, scaled = _setup_sample(src)
            setup.append(raw)
            setup_scaled.append(scaled)

    result = _rounds(cli.main, parts, seconds / 2 if trace else seconds, deadline, clock,
                     keep=True, between=None if trace else setup_between)
    while not trace and len(setup) < SETUP_RUNS:
        setup_between()
    result.update(
        setup=setup,
        setup_scaled=setup_scaled,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if not trace:
        return result

    from tracing import ROOT, Tracer

    tracer = Tracer()
    tracer.install()
    layers: list[dict[str, float]] = []

    def collect():
        # runs before each traced round, off the clock
        if tracer.spans:
            layers.append(_layer_metrics(tracer))
        tracer.reset()

    try:
        traced = _rounds(lambda a: tracer.call(ROOT, cli.main, a), parts, seconds / 2,
                         deadline, clock, keep=False, between=collect)
    finally:
        tracer.uninstall()
    layers.append(_layer_metrics(tracer))
    # times vary between rounds and take the median; counts repeat
    metrics = {
        k: statistics.median(d[k] for d in layers) if k.endswith(("_s", "_ms")) else v
        for k, v in layers[-1].items()
    }
    stay = _stay_probe(tracer, sds_module)
    absent = list(tracer.absent)
    if stay is None:
        absent.append("sparsemob.sds.stay_flags_at")
        stay = 0.0
    metrics["sds.stay_pass_s"] = stay
    metrics["sds.travel_pass_s"] = metrics["sds.label_s"] - stay
    # scaled times, like wall_s, so the host's drift between the halves cancels
    metrics["trace_overhead_s"] = median_total(traced["scaled"]) - median_total(result["scaled"])
    result.update(
        traced_walls=traced["walls"],
        traced_codes=traced["codes"],
        traced_shas=traced["shas"],
        layers=metrics,
        absent=absent,
        spans=tracer.dump(),
    )
    return result


def median_total(walls: list[list[float]]) -> float:
    """Sum over parts of each part's median time."""
    return sum(statistics.median(w) for w in walls)


def main() -> int:
    src, job_path, result_path = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
    job = json.loads(job_path.read_text())
    result = run(src, job)
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
