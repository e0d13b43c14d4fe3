"""Correctness checks on one run's outputs, and the quality figures.

Structural faults (non-zero exit, missing or malformed output, keys that do
not match the input, outputs that differ between repetitions, drifted
inputs) make the run incorrect. Soundness violations against the simulator's
continuous truth leave the output well-formed; they are counted as failed
operations and reported as ``false_flags``, never hidden.

Operations are counted once per run, not once per repetition: every
repetition of a part must write the same bytes, so the count depends on the
seed alone and not on how many repetitions fitted into the measured seconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsemob.core import LABEL_STAY, LABEL_TRAVEL, METERS_PER_DEGREE

from inputs import PARAMS, Inputs, Part, dense_segments, window_records

EXPERIMENT_RATES = ("1.0", "0.9", "0.8", "0.7", "0.6", "0.5", "0.4", "0.3", "0.2", "0.1")
EXPERIMENT_HEADER = (
    "rate,mean_gap,stay_precision,stay_recall,travel_precision,travel_recall,accuracy,f1_accuracy"
)


@dataclass
class Verdict:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    precision: float = 0.0
    recall: float = 0.0
    output_sha: list[str | None] = field(default_factory=list)
    descriptors: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Malformed(ValueError):
    """The output cannot be read as the command's documented format."""


def _descriptors(inputs: Inputs) -> dict:
    times = [traj.times for traj in inputs.trajectories]
    return {
        "records": inputs.records,
        "devices": len(times),
        "dense_segments": sum(dense_segments(t, PARAMS.delta_t) for t in times),
        "window_records_mean": sum(window_records(t, PARAMS.delta_t) for t in times) / inputs.records,
    }


def _table(text: str, kind: str, header: str) -> list[list[str]]:
    lines = text.split("\n")
    if lines[:2] != [f"# sparsemob {kind} v1", header] or lines[-1] != "":
        raise Malformed(f"output does not start with the {kind} v1 preamble")
    return [line.split(",") for line in lines[2:-1]]


class _Labels:
    """Label outputs, part by part; quality is taken over all of them."""

    def __init__(self) -> None:
        self.letters, self.truth, self.device, self.times = [], [], [], []

    def read(self, inputs: Inputs, part: Part, text: str) -> list[str]:
        """Failed devices of one part's labels CSV."""
        rows = _table(text, "labels", "mid,time,label")
        order = sorted(range(part.first, part.stop), key=lambda i: inputs.trajectories[i].device)
        expected = [
            (inputs.trajectories[i].device, str(int(t)))
            for i in order
            for t in inputs.trajectories[i].times
        ]
        if [(r[0], r[1]) for r in rows if len(r) == 3] != expected or any(len(r) != 3 for r in rows):
            raise Malformed("output (mid, time) keys differ from the input's")
        letters = np.array([r[2] for r in rows])
        if not np.isin(letters, ("S", "T", "U")).all():
            raise Malformed("a label is not one of S, T, U")
        truth = np.concatenate([inputs.truth[i] for i in order])
        device = np.repeat([inputs.trajectories[i].device for i in order],
                           [len(inputs.trajectories[i]) for i in order])
        self.letters.append(letters)
        self.truth.append(truth)
        self.device.append(device)
        self.times += [r[1] for r in rows]
        false = ((letters == "S") & (truth == LABEL_TRAVEL)) | ((letters == "T") & (truth == LABEL_STAY))
        return sorted(set(device[false].tolist()))

    def finish(self, verdict: Verdict) -> None:
        letters, truth = np.concatenate(self.letters), np.concatenate(self.truth)
        device = np.concatenate(self.device)
        pred_s, pred_t = letters == "S", letters == "T"
        truth_s, truth_t = truth == LABEL_STAY, truth == LABEL_TRAVEL
        false = (pred_s & truth_t) | (pred_t & truth_s)
        right = int((pred_s & truth_s).sum() + (pred_t & truth_t).sum())
        flags = int(pred_s.sum() + pred_t.sum())
        verdict.precision = right / flags if flags else 1.0
        verdict.recall = right / len(letters)
        verdict.quality = {
            "false_flags": int(false.sum()),
            "false_stay": int((pred_s & truth_t).sum()),
            "false_travel": int((pred_t & truth_s).sum()),
            "stay_recall": float((pred_s & truth_s).sum() / max(truth_s.sum(), 1)),
            "travel_recall": float((pred_t & truth_t).sum() / max(truth_t.sum(), 1)),
            "false_flag_keys": [f"{device[i]}@{self.times[i]}" for i in np.nonzero(false)[0][:20]],
        }
        verdict.descriptors.update(
            labels_S=int(pred_s.sum()), labels_T=int(pred_t.sum()), labels_U=int((letters == "U").sum())
        )


def _number(text: str) -> float | None:
    return None if text == "NA" else float(text)


class _Experiment:
    """Experiment outputs, one per part, each with the default rate rows."""

    def __init__(self) -> None:
        self.values: list[list[float | None]] = []

    def read(self, inputs: Inputs, part: Part, text: str) -> list[str]:
        """Failed rate rows of one part's experiment CSV (any precision below 1.0)."""
        rows = _table(text, "rates", EXPERIMENT_HEADER)
        if [r[0] for r in rows] != list(EXPERIMENT_RATES) or any(len(r) != 8 for r in rows):
            raise Malformed("experiment rows do not match the default rates")
        values = [[_number(v) for v in r[1:]] for r in rows]
        if any(v[0] is None or v[2] is None or v[4] is None for v in values):
            raise Malformed("mean gap or a recall is NA")
        # at rate 1.0 every record is kept, so the pooled mean gap pins the inputs
        trajectories = [t for t in inputs.trajectories[part.first : part.stop] if len(t)]
        gap_seconds = sum(int(t.times[-1] - t.times[0]) for t in trajectories)
        gap_count = sum(len(t) - 1 for t in trajectories)
        if values[0][0] != gap_seconds / gap_count:
            raise Malformed("rate-1.0 mean gap differs from the generated trajectories'")
        self.values += values
        return [
            f"{part.argv[part.argv.index('--seed') + 1]}@{r[0]}"
            for r, v in zip(rows, values)
            if any(p is not None and p < 1.0 for p in (v[1], v[3]))
        ]

    def finish(self, verdict: Verdict) -> None:
        precisions = [p for v in self.values for p in (v[1], v[3]) if p is not None]
        verdict.precision = min(precisions, default=1.0)
        verdict.recall = float(np.mean([(v[2] + v[4]) / 2 for v in self.values]))
        verdict.quality = {
            "false_flags": sum(p < 1.0 for p in precisions),
            "stay_recall": float(np.mean([v[2] for v in self.values])),
            "travel_recall": float(np.mean([v[4] for v in self.values])),
        }


def _dense_members(traj) -> np.ndarray:
    """Records inside some window of consecutive records with gaps <= delta_t,
    all pairwise distances < delta_s and a span >= delta_t, with the CLI's
    default projection (first record's latitude). Brute force, for small
    trajectories: these are the records leave-one-out could test."""
    x = traj.lons * (METERS_PER_DEGREE * math.cos(math.radians(float(traj.lats[0]))))
    y = traj.lats * METERS_PER_DEGREE
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    t = traj.times
    n = len(t)
    members = np.zeros(n, dtype=bool)
    for p in range(n):
        q = p
        while q + 1 < n and t[q + 1] - t[q] <= PARAMS.delta_t and (d2[q + 1, p : q + 1] < PARAMS.delta_s**2).all():
            q += 1
        if t[q] - t[p] >= PARAMS.delta_t:
            members[p : q + 1] = True
    return members


class _Loo:
    """prop1 outputs, one threshold-pair row per part."""

    def __init__(self) -> None:
        self.tested = self.violations = self.members = 0

    def read(self, inputs: Inputs, part: Part, text: str) -> list[str]:
        """The part's row fails on any leave-one-out violation."""
        rows = _table(text, "prop1", "delta_s,delta_t,tested,violations,rate")
        if len(rows) != 1 or len(rows[0]) != 5 or rows[0][:2] != [repr(PARAMS.delta_s), repr(PARAMS.delta_t)]:
            raise Malformed("prop1 output is not one row for the default thresholds")
        tested, violations = int(rows[0][2]), int(rows[0][3])
        if not 0 <= violations <= tested or float(rows[0][4]) != (violations / tested if tested else 0.0):
            raise Malformed("prop1 counts are inconsistent")
        self.tested += tested
        self.violations += violations
        self.members += sum(
            int(_dense_members(t)[1:-1].sum()) for t in inputs.trajectories[part.first : part.stop]
        )
        return [part.argv[1]] if violations else []

    def finish(self, verdict: Verdict) -> None:
        verdict.precision = 1.0 - self.violations / self.tested if self.tested else 1.0
        verdict.recall = self.tested / self.members
        verdict.quality = {"false_flags": self.violations, "tested": self.tested, "violations": self.violations}


def check(workload: str, inputs: Inputs, result: dict | None, first_outputs: list[Path],
          pinned: dict | None) -> Verdict:
    """``result`` holds each part's exit codes and output digests, one per
    repetition; ``first_outputs`` each part's first output."""
    verdict = Verdict(descriptors=_descriptors(inputs))
    if workload.startswith("label-"):
        reader, ops_per_part = _Labels(), None
    elif workload == "experiment":
        reader, ops_per_part = _Experiment(), len(EXPERIMENT_RATES)
    else:
        reader, ops_per_part = _Loo(), 1
    ops = [ops_per_part or part.stop - part.first for part in inputs.parts]
    verdict.attempted = sum(ops)
    if pinned is not None:
        verdict.attempted += 1
        if pinned != inputs.digests:
            verdict.failed += 1
            verdict.problems.append("input digests differ from the pinned ones for the default seed")
    if result is None:
        verdict.correct = False
        verdict.failed += sum(ops)
        verdict.problems.append("worker crashed or timed out")
        return verdict

    codes = [a + b for a, b in zip(result["codes"], result.get("traced_codes", [[]] * len(ops)))]
    shas = [a + b for a, b in zip(result["shas"], result.get("traced_shas", [[]] * len(ops)))]
    verdict.output_sha = [s[0] for s in shas]
    failed_ops: list[str] = []
    bad_reps = 0
    for part, n_ops, part_codes, part_shas, first in zip(inputs.parts, ops, codes, shas, first_outputs):
        bad = sum(1 for c, s in zip(part_codes, part_shas) if c != 0 or s is None or s != part_shas[0])
        try:
            if part_shas[0] is None or part_codes[0] != 0:
                raise Malformed("first repetition failed or wrote no output")
            part_failed = reader.read(inputs, part, first.read_text())
        except (Malformed, ValueError) as exc:
            verdict.correct = False
            verdict.failed += n_ops
            verdict.problems.append(f"malformed output of {part.output.name}: {exc}")
            continue
        if bad:
            bad_reps += bad
            # a repetition that differs cannot be pinned to one operation, so all fail
            verdict.failed += n_ops
        else:
            verdict.failed += len(part_failed)
            failed_ops += part_failed
    if not verdict.correct:
        return verdict
    reader.finish(verdict)
    if bad_reps:
        verdict.correct = False
        verdict.problems.append(f"{bad_reps} repetitions exited non-zero or wrote other bytes")
    if failed_ops:
        verdict.problems.append(f"soundness violations in {len(failed_ops)} operation(s): {failed_ops[:10]}")
    return verdict
