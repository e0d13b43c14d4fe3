"""Exhaustive reference semantics for stay/travel on complete trajectories.

These operations define what the labels *mean* on a discrete record sequence,
independently of the windowed labeler in :mod:`sparsemob.sds`, one function
per question:

* :func:`exact_label`: a record is Stay when some window of consecutive
  records containing it has all pairwise distances < delta_s and spans at
  least delta_t; otherwise it is Travel. The labeling is total (no
  abstention).
* :func:`dense_stay_windows`: the maximal such windows whose consecutive gaps
  are all <= delta_t, which is all any single-trajectory labeler can
  possibly certify as Stay; :func:`dense_stay_membership` is their union.
* :func:`travel_condition_all`: whether a record has witnesses at distance
  >= ``spatial`` strictly before and after it, at most ``delta_t`` apart in
  time.

Everything here is quadratic-or-worse by design and, but for
:func:`dense_stay_windows`, guarded by a size limit; it exists to check the
fast labeler, not to replace it.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LabeledTrajectory,
    MobilityParams,
    Trajectory,
    planar,
)

ORACLE_LIMIT_DEFAULT = 200


class OracleLimitError(ValueError):
    """Trajectory too long for the exhaustive oracle."""


def _check_limit(traj: Trajectory, limit: int) -> None:
    if len(traj) > limit:
        raise OracleLimitError(
            f"trajectory has {len(traj)} records, oracle limit is {limit}"
        )


def _dist2(traj: Trajectory, ref_lat: float | None) -> np.ndarray:
    x, y = planar(traj, ref_lat)
    return (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2


def _windows(
    traj: Trajectory, params: MobilityParams, max_gap: float, ref_lat: float | None
) -> list[tuple[int, int]]:
    """Maximal windows of consecutive records with every pair closer than
    delta_s, every consecutive gap <= ``max_gap`` and a span of at least
    delta_t, as inclusive (p, q) index pairs.

    The largest q whose [p, q] meets the distance and gap rules never falls
    as p grows, so a two-pointer sweep checks each new record against the
    window only once. A window that ends no later than an earlier one lies
    inside it and is skipped.
    """
    n = len(traj)
    if n == 0:
        return []
    d2 = _dist2(traj, ref_lat)
    s2 = params.delta_s * params.delta_s
    t = traj.times.tolist()
    out: list[tuple[int, int]] = []
    q = 0
    for p in range(n):
        q = max(q, p)
        while (
            q + 1 < n
            and t[q + 1] - t[q] <= max_gap
            and bool((d2[q + 1, p : q + 1] < s2).all())
        ):
            q += 1
        if t[q] - t[p] >= params.delta_t and (not out or q > out[-1][1]):
            out.append((p, q))
    return out


def _members(n: int, windows: list[tuple[int, int]]) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    for p, q in windows:
        flags[p : q + 1] = True
    return flags


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
    _check_limit(traj, limit)
    stay = _members(len(traj), _windows(traj, params, math.inf, ref_lat))
    return LabeledTrajectory(traj, np.where(stay, LABEL_STAY, LABEL_TRAVEL))


def dense_stay_membership(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> np.ndarray:
    """Boolean flag per record: member of some window of
    :func:`dense_stay_windows`."""
    _check_limit(traj, limit)
    return _members(len(traj), dense_stay_windows(traj, params, ref_lat=ref_lat))


def dense_stay_windows(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> list[tuple[int, int]]:
    """Maximal qualifying windows whose internal gaps are all <= delta_t, as
    inclusive (p, q) index pairs.

    The tests check these windows against the simulator's continuous dwells,
    and their per-removal leave-one-out check runs it on every remainder as
    the reference for :func:`sparsemob.evaluate.local_consistency_check`,
    which decides each removal without building windows. Not size-limited:
    it builds the n x n distance matrix and the sweep is O(L^2).
    """
    return _windows(traj, params, params.delta_t, ref_lat)


def travel_condition_all(
    traj: Trajectory,
    spatial: float,
    delta_t: float,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> np.ndarray:
    """Brute-force bilateral witness check for every record at once.

    Record i is witnessed iff there exist p < i < q with d(i, p) >= spatial,
    d(i, q) >= spatial, and t_q - t_p <= delta_t. Endpoint records are never
    witnessed (one side is empty).
    """
    _check_limit(traj, limit)
    n = len(traj)
    out = np.zeros(n, dtype=bool)
    if n < 3:
        return out
    d2 = _dist2(traj, ref_lat)
    s2 = spatial * spatial
    t = traj.times
    window_ok = (t[None, :] - t[:, None]) <= delta_t  # [p, q]
    far = d2 >= s2
    for i in range(1, n - 1):
        lp = far[i, :i]
        rq = far[i, i + 1 :]
        if lp.any() and rq.any():
            out[i] = bool((lp[:, None] & rq[None, :] & window_ok[:i, i + 1 :]).any())
    return out
