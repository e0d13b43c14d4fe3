"""The sparsemob benchmark: one workload per run, through the CLI entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload label-sparse --seed 1 --seconds 20 --trace 0

Steps: build the workload's inputs from ``--seed``, split into parts of one
CLI command each (inputs.py); in one fresh worker process, run
``sparsemob.cli.main(argv)`` on every part, round after round, for
``--seconds``, and time the set-up (fresh-interpreter import of
``sparsemob.cli`` plus building its parser) between rounds (worker.py); check
the outputs (checks.py); print every metric with its unit; write
``.perfbench/BENCH_<workload>.json``; and print one JSON result as the last
line. ``--trace 1`` adds traced rounds in the same worker and reports the
per-layer metrics instead (tracing.py).

``wall_s`` is the time to run the whole input: the sum over parts of each
part's median time, with every call's time scaled to the host's nominal
speed by a reference loop timed around it (reference.py says why).
``setup_s`` is the median set-up time, scaled by the reference loop as
well, to the power ``worker.SETUP_SPEED_EXPONENT``. The raw, unscaled times
are printed and kept in the BENCH file too.

An operation is one device (label workloads), one rate row (experiment) or
the one threshold-pair row (loo-prop1), counted once per run whatever the
number of repetitions, so a seed always gives the same counts. It fails on a
non-zero exit, a missing or malformed output, an output that differs between
repetitions, input digests that differ from the pinned ones, or a soundness
violation: any false flag against the simulator's continuous truth, any
precision below 1.0, any leave-one-out violation.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 0
WORKER_TIMEOUT_S = 150.0

# BENCHMARK.json at the checkout root names the workloads and metrics
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Per-layer figures that are derived rather than measured.
DERIVED = {"sds.travel_pass_s": "sds.label_s - sds.stay_pass_s"}

def _unit(name: str) -> str:
    """Unit of a descriptor or quality figure (those are not in BENCHMARK.json)."""
    if name.endswith(("recall", "share")):
        return "ratio"
    if name in ("records", "window_records_mean"):
        return "records"
    return "" if name.endswith("keys") else "count"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_worker(job: dict, workdir: Path, timeout: float) -> dict | None:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job))
    with open(workdir / "worker.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(SRC), str(job_path), str(result_path)],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            # subprocess.run kills the worker and waits for it before raising
            return None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write((workdir / "worker.log").read_text()[-4000:])
        return None
    return json.loads(result_path.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (SRC / "sparsemob" / "cli.py").is_file():
        return _fail(f"no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import sparsemob

    if not Path(sparsemob.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported {sparsemob.__file__}, not the package under {SRC}")
    import checks
    import inputs as inputs_mod
    from worker import median_total

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = inputs_mod.build(args.workload, args.seed, workdir)
        keep = [workdir / f"first-{k:02d}.csv" for k in range(len(inputs.parts))]
        job = {
            "parts": [
                {"argv": part.argv, "output": str(part.output), "keep": str(path)}
                for part, path in zip(inputs.parts, keep)
            ],
            "seconds": args.seconds,
            "trace": args.trace,
        }
        remaining = 170.0 - (time.perf_counter() - started)
        result = _run_worker(job, workdir, min(WORKER_TIMEOUT_S, remaining))
        pinned = json.loads((HERE / "pinned.json").read_text())
        verdict = checks.check(
            args.workload, inputs, result, keep,
            pinned.get(args.workload) if args.seed == DEFAULT_SEED else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a crashed worker leaves zeros, and the verdict marks the run incorrect
    wall = median_total(result["scaled"]) if result else 0.0
    setup = result["setup_scaled"] if result else []
    e2e = {
        "wall_s": wall,
        "records_per_s": inputs.records / wall if wall else 0.0,
        "setup_s": statistics.median(setup) if setup else 0.0,
        "peak_rss_mb": result["peak_rss_mb"] if result else 0.0,
        "precision": verdict.precision,
        "recall": verdict.recall,
    }
    layers = {k: result["layers"].get(k, 0.0) for k in PER_LAYER} if args.trace and result else {}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "descriptors": verdict.descriptors,
        "quality": verdict.quality,
        "failed_share": verdict.failed / verdict.attempted,
        "inputs_sha256": inputs.digests,
        "output_sha256": verdict.output_sha,
        "parts": len(inputs.parts),
        "rounds": len(result["walls"][0]) if result else 0,
        "wall_raw_s": median_total(result["walls"]) if result else 0.0,
        "setup_raw_s": statistics.median(result["setup"]) if setup else 0.0,
        "wall_s_samples": result["walls"] if result else [],
        "wall_scaled_samples": result["scaled"] if result else [],
        "setup_s_samples": result["setup"] if result else [],
        "setup_scaled_samples": setup,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()},
        "derived": DERIVED if layers else {},
        "absent_entry_points": result.get("absent", []) if result else [],
        "problems": verdict.problems,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }
    if args.trace and result:
        report["traced_wall_s_samples"] = result["traced_walls"]
        report["trace_self_sum_s"] = result["layers"].get("trace.self_sum_s")
        (WORK / f"TRACE_{args.workload}.json").write_text(json.dumps(result["spans"]))
    (WORK / f"BENCH_{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")

    for name, value in verdict.descriptors.items():
        print(f"{args.workload} descriptor {name} = {value} {_unit(name)}")
    for name, value in verdict.quality.items():
        print(f"{args.workload} quality {name} = {value} {_unit(name)}")
    for name, value in e2e.items():
        if name == "setup_s" and not setup:
            continue
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END[name]}")
    print(f"{args.workload} unscaled wall_s = {report['wall_raw_s']:.6g} s "
          f"({report['parts']} parts x {report['rounds']} rounds)")
    if setup:
        print(f"{args.workload} unscaled setup_s = {report['setup_raw_s']:.6g} s")
    for name, value in layers.items():
        note = f"  (derived: {DERIVED[name]})" if name in DERIVED else ""
        print(f"{args.workload} {name} = {value:.6g} {PER_LAYER[name]}{note}")
    for name in report["absent_entry_points"]:
        print(f"{args.workload} absent entry point: {name}")
    print(f"{args.workload} quality failed_share = {report['failed_share']:.6g} ratio "
          f"({verdict.failed} of {verdict.attempted} operations)")
    for problem in verdict.problems:
        print(f"{args.workload} problem: {problem}")

    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
