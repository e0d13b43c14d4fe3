"""Exhaustive reference semantics for stay/travel on complete trajectories.

:func:`exact_label` defines what the labels *mean* on a discrete record
sequence, independently of the windowed labeler in :mod:`sparsemob.sds`: a
record is Stay when some window of consecutive records containing it has
all pairwise distances < delta_s and spans at least delta_t; otherwise it is
Travel. The labeling is total (no abstention).

It is quadratic by design and guarded by a size limit; it exists to check
the fast labeler, not to replace it.
"""
from __future__ import annotations

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LabeledTrajectory,
    MobilityParams,
    Trajectory,
    planar,
    radii,
)

ORACLE_LIMIT_DEFAULT = 200


class OracleLimitError(ValueError):
    """Trajectory too long for the exhaustive oracle."""


def _check_limit(size: int, limit: int) -> None:
    """Refuse a trajectory of ``size`` records longer than ``limit``."""
    if size > limit:
        raise OracleLimitError(f"trajectory has {size} records, oracle limit is {limit}")


def _dist2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared pairwise distances of planar points."""
    return (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2


def _windows(
    d2: np.ndarray, times: np.ndarray, params: MobilityParams
) -> list[tuple[int, int]]:
    """Maximal windows of consecutive records with every pair closer than
    the ``dense`` radius of ``core.radii`` (delta_s) and a span of at least
    delta_t, as inclusive (p, q) index pairs, given the records' squared
    pairwise distances ``d2``.

    The largest q whose [p, q] meets the distance rule never falls as p
    grows, so a two-pointer sweep checks each new record against the window
    only once. A window that ends no later than an earlier one lies inside
    it and is skipped.
    """
    n = len(times)
    dense = radii(params).dense
    s2 = dense * dense
    t = times.tolist()
    out: list[tuple[int, int]] = []
    q = 0
    for p in range(n):
        q = max(q, p)
        while q + 1 < n and bool((d2[q + 1, p : q + 1] < s2).all()):
            q += 1
        if t[q] - t[p] >= params.delta_t and (not out or q > out[-1][1]):
            out.append((p, q))
    return out


def _members(n: int, windows: list[tuple[int, int]]) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    for p, q in windows:
        flags[p : q + 1] = True
    return flags


def _exact_codes(x, y, t, sizes, params: MobilityParams) -> np.ndarray:
    """int8 Stay/Travel codes of consecutive trajectories in planar
    coordinates, each labeled alone by window semantics: one ``_windows``
    sweep over each trajectory's slice. Sizes are not limited here; a
    caller checks each one with ``_check_limit`` first."""
    ends = np.cumsum(np.asarray(sizes, dtype=np.int64)).tolist()
    stay = np.zeros(len(t), dtype=bool)
    for a, b in zip([0] + ends, ends):
        stay[a:b] = _members(b - a, _windows(_dist2(x[a:b], y[a:b]), t[a:b], params))
    return np.where(stay, LABEL_STAY, LABEL_TRAVEL).astype(np.int8)


def exact_label(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> LabeledTrajectory:
    """Total Stay/Travel labeling by window semantics (declarative, not the
    windowed labeler's control flow). A lone record is Travel: no two-record
    window exists to certify a dwell."""
    _check_limit(len(traj), limit)
    x, y = planar(traj, ref_lat)
    return LabeledTrajectory(traj, _exact_codes(x, y, traj.times, [len(traj)], params))
