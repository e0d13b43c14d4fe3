"""Deterministic benchmark inputs, built from a seed with public simulator calls.

Every workload's inputs derive from ``--seed`` alone: the same seed writes
the same bytes, and the sha256 of each file is recorded with the result.
For the default seed the digests are pinned in ``pinned.json``; a mismatch
means the inputs drifted (say, the simulator changed), and parent and change
would no longer be compared on the same inputs.

Each workload's input is split into parts, each one CLI command: ten
devices of ``label-sparse``, one device of ``label-dense``, twenty
trajectories of ``experiment`` (each part its own ``--seed``), five devices
of ``loo-prop1``. A part takes a tenth of a second to a second, short enough
for the reference loop timed around it to see the host's speed at the time.

Workload notes:

* ``label-sparse`` keeps the CLI defaults, including the per-device reference
  latitude (first record). That default is a known soundness hole: with seed
  11, record 866 of ``d0172`` (reference latitude 39.78) comes out ``T``
  although its continuous truth is stay, and with ``--ref-lat 39.9`` it
  abstains. About half of all seeds show one to three such flags. They are
  counted as ``false_flags`` and failed devices, not hidden.
* ``label-dense`` walks are observed without jitter, because the truth check
  compares against the path and does not hold under jitter: over seeds 1-5,
  25 m of dwell jitter gave 30 ``T`` flags on truth-stay records, against 1
  without jitter. That one is the reference-latitude hole above, which also
  shows on these walks near leg ends.
* The dense walks have near-fixed dwell and jump lengths, so the kernel's
  cost barely depends on the seed; each trace ends part way into a dwell
  shorter than ``delta_t``, the dwell edge where the witness scans run to
  the end of the segment. The wander device circles at 200 m radius: its
  diameter lies between ``delta_s/3`` and ``delta_s``, so every record is
  truth-stay, no stay window lasts ``delta_t`` and no witness is far enough,
  and it comes out all ``U`` after scanning ``delta_t`` back from each record.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsemob.core import LABEL_STAY, LABEL_TRAVEL, MobilityParams, Trajectory
from sparsemob.simulate import (
    CtrwConfig,
    continuous_labels,
    generate_ctrw,
    observe,
    planar_to_lonlat,
    synth_schedule,
)

#: CLI defaults; every workload runs at these thresholds.
PARAMS = MobilityParams(delta_s=800.0, delta_t=1800.0)

SPARSE_DEVICES = 200
SPARSE_RECORDS = 1000

DENSE_WALKS = 2
DENSE_DWELL_S = 2400.0
DENSE_JUMP_M = 3000.0
DENSE_TAIL_S = 300
WANDER_RECORDS = 1100
WANDER_RADIUS_M = 200.0
WANDER_PERIOD_S = 1200.0

EXPERIMENT_TRAJECTORIES = 200
EXPERIMENT_PER_PART = 20

LOO_DEVICES = 40
LOO_RECORDS = 60
LOO_PER_PART = 5

SPARSE_PER_PART = 10

_LETTER = {LABEL_STAY: "S", LABEL_TRAVEL: "T"}


@dataclass
class Part:
    """One CLI command; it covers ``trajectories[first:stop]``."""

    argv: list[str]
    output: Path
    first: int
    stop: int


@dataclass
class Inputs:
    """What one workload feeds the CLI, and what the checks compare against."""

    parts: list[Part] = field(default_factory=list)
    trajectories: list[Trajectory] = field(default_factory=list)
    truth: list[np.ndarray] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def records(self) -> int:
        return sum(len(t) for t in self.trajectories)


def dense_segments(times: np.ndarray, delta_t: float) -> int:
    """Maximal runs of records with gaps <= delta_t."""
    return 1 + int((np.diff(times) > delta_t).sum()) if len(times) else 0


def window_records(times: np.ndarray, delta_t: float) -> int:
    """Records within +-delta_t of each record (itself excluded), summed:
    the input property that the kernel's scans grow with."""
    lo = np.searchsorted(times, times - delta_t, side="right")
    hi = np.searchsorted(times, times + delta_t, side="left")
    return int((hi - lo - 1).sum())


def _c6_walks(seed: int, devices: int, records: int, prefix: str):
    """Walks on the c6 schedule: power-law gaps >= 60 s, exponent 1.6."""
    out = []
    for d in range(devices):
        rng = np.random.default_rng((seed, d))
        times = synth_schedule(rng, records)
        walk = CtrwConfig(duration=float(times[-1] + 1), seed=int(rng.integers(0, 2**62)))
        path = generate_ctrw(walk)
        out.append((observe(path, times, device=f"{prefix}{d:04d}"), continuous_labels(path, times, PARAMS)))
    return out


def _dense_walks(seed: int):
    duration = int(DENSE_DWELL_S + DENSE_JUMP_M / CtrwConfig.speed) + DENSE_TAIL_S
    out = []
    for d in range(DENSE_WALKS):
        rng = np.random.default_rng((seed, 1, d))
        walk = CtrwConfig(
            wait_min=DENSE_DWELL_S,
            wait_max=DENSE_DWELL_S + 0.5,
            jump_min=DENSE_JUMP_M,
            jump_max=DENSE_JUMP_M + 0.5,
            duration=float(duration),
            seed=int(rng.integers(0, 2**62)),
        )
        path = generate_ctrw(walk)
        times = np.arange(duration, dtype=np.int64)
        out.append((observe(path, times, device=f"dense{d:02d}"), continuous_labels(path, times, PARAMS)))
    return out


def _wander(seed: int):
    rng = np.random.default_rng((seed, 2))
    cx, cy = rng.uniform(-5000.0, 5000.0, 2)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    times = np.arange(WANDER_RECORDS, dtype=np.int64)
    angle = phase + 2.0 * math.pi * times / WANDER_PERIOD_S
    lons, lats = planar_to_lonlat(
        cx + WANDER_RADIUS_M * np.cos(angle),
        cy + WANDER_RADIUS_M * np.sin(angle),
        CtrwConfig.origin_lon,
        CtrwConfig.origin_lat,
    )
    traj = Trajectory(device="wander00", times=times, lons=lons, lats=lats)
    # the loop's diameter is under delta_s, so every instant is a dwell instant
    return [(traj, np.full(len(traj), LABEL_STAY, dtype=np.int8))]


def _experiment_walks(seed: int, count: int, prefix: str):
    """The experiment's full-rate trajectories, drawn in the order the
    experiment documents: one generator per (seed, index) drives the walk
    seed, then the schedule (enough 60 s gaps to cover the horizon, clipped),
    then observation."""
    out = []
    for index in range(count):
        base = np.random.default_rng((seed, index))
        path = generate_ctrw(CtrwConfig(seed=int(base.integers(0, 2**62))))
        times = synth_schedule(base, int(math.ceil(path.duration / 60.0)))
        times = times[times <= path.duration]
        traj = observe(path, times, device=f"{prefix}sim{index:05d}", rng=base)
        out.append((traj, continuous_labels(path, times, PARAMS)))
    return out


def _write(path: Path, text_rows, header: str) -> str:
    data = (header + "\n" + "".join(text_rows)).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _record_rows(trajectories):
    return (
        f"{int(t)},{float(lon)!r},{float(lat)!r},{traj.device}\n"
        for traj in trajectories
        for t, lon, lat in zip(traj.times, traj.lons, traj.lats)
    )


def _write_pairs(inputs: Inputs, workdir: Path, pairs) -> None:
    inputs.trajectories = [t for t, _ in pairs]
    inputs.truth = [labels for _, labels in pairs]
    inputs.digests["records.csv"] = _write(
        workdir / "records.csv", _record_rows(inputs.trajectories), "time,lon,lat,mid"
    )
    inputs.digests["truth.csv"] = _write(
        workdir / "truth.csv",
        (
            f"{traj.device},{int(t)},{_LETTER[int(c)]}\n"
            for traj, labels in pairs
            for t, c in zip(traj.times, labels)
        ),
        "mid,time,label",
    )


def _file_parts(inputs: Inputs, workdir: Path, per_part: int, command: list[str]) -> None:
    """One records CSV per ``per_part`` devices, each run as ``command``."""
    for k, first in enumerate(range(0, len(inputs.trajectories), per_part)):
        stop = min(first + per_part, len(inputs.trajectories))
        records = workdir / f"records-{k:02d}.csv"
        _write(records, _record_rows(inputs.trajectories[first:stop]), "time,lon,lat,mid")
        out = workdir / f"out-{k:02d}.csv"
        inputs.parts.append(Part([command[0], str(records), "--out", str(out), *command[1:]], out, first, stop))


def experiment_seed(seed: int, part: int) -> int:
    """The ``--seed`` of one experiment part."""
    return seed * (EXPERIMENT_TRAJECTORIES // EXPERIMENT_PER_PART) + part


def build(workload: str, seed: int, workdir: Path) -> Inputs:
    """Write one workload's inputs under ``workdir``, split into parts."""
    inputs = Inputs()
    if workload == "label-sparse":
        _write_pairs(inputs, workdir, _c6_walks(seed, SPARSE_DEVICES, SPARSE_RECORDS, "d"))
        _file_parts(inputs, workdir, SPARSE_PER_PART, ["label", "--workers", "1"])
    elif workload == "label-dense":
        _write_pairs(inputs, workdir, _dense_walks(seed) + _wander(seed))
        _file_parts(inputs, workdir, 1, ["label", "--workers", "1"])
    elif workload == "experiment":
        # the CLI draws these itself from --seed; written here for the digest
        # and for the record count and mean-gap check
        pairs = []
        for k in range(EXPERIMENT_TRAJECTORIES // EXPERIMENT_PER_PART):
            part_seed = experiment_seed(seed, k)
            out = workdir / f"out-{k:02d}.csv"
            argv = [
                "evaluate", "--experiment", "--trajectories", str(EXPERIMENT_PER_PART),
                "--seed", str(part_seed), "--out", str(out), "--workers", "1",
            ]
            inputs.parts.append(Part(argv, out, len(pairs), len(pairs) + EXPERIMENT_PER_PART))
            pairs += _experiment_walks(part_seed, EXPERIMENT_PER_PART, f"p{k:02d}-")
        _write_pairs(inputs, workdir, pairs)
    elif workload == "loo-prop1":
        _write_pairs(inputs, workdir, _c6_walks(seed, LOO_DEVICES, LOO_RECORDS, "p"))
        _file_parts(inputs, workdir, LOO_PER_PART, ["prop1"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
