"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces public functions at the module attributes where ``cli``
and ``evaluate`` look them up, so the package itself is not edited. Each span
holds its name, start, end and parent; spans stay in memory until the traced
run ends. A layer's self time is its spans' durations minus the parts their
child spans cover.
"""
from __future__ import annotations

import importlib
import time

# (module, attribute it is looked up under, span name)
PATCHES = (
    ("sparsemob.cli", "ingest", "cli.ingest"),
    ("sparsemob.cli", "Trajectory", "core.trajectory"),
    ("sparsemob.cli", "sds_label", "sds.label"),
    ("sparsemob.cli", "resampling_experiment", "evaluate.count"),
    ("sparsemob.evaluate", "Trajectory", "core.trajectory"),
    ("sparsemob.evaluate", "sds_label", "sds.label"),
    ("sparsemob.evaluate", "stay_flags_at", "sds.pool"),
    ("sparsemob.evaluate", "travel_flags_at", "sds.pool"),
    ("sparsemob.evaluate", "generate_ctrw", "simulate.walk"),
    ("sparsemob.evaluate", "synth_schedule", "simulate.schedule"),
    ("sparsemob.evaluate", "observe", "simulate.observe"),
    ("sparsemob.evaluate", "continuous_labels", "simulate.truth"),
    ("sparsemob.evaluate", "local_consistency_check", "evaluate.loo"),
    ("sparsemob.evaluate", "dense_stay_windows", "oracle.windows"),
)

#: Span names whose arguments and results are kept for the counters.
KEEP_CALLS = frozenset({"cli.ingest", "sds.label", "evaluate.loo"})

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.calls = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        spans = self.spans
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if name in KEEP_CALLS:
            self.calls.append((name, args, kwargs, result))
        return result

    def install(self) -> None:
        """Wrap every entry point in PATCHES; a missing one is recorded as
        absent (a later version may have removed it) and skipped."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original))
            self._undo.append((module, attr, original))

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo = []

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + seconds
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
