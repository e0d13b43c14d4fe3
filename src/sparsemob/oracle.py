"""Exhaustive reference semantics for stay/travel on complete trajectories.

These operations define what the labels *mean* on a discrete record sequence,
independently of the windowed labeler in :mod:`sparsemob.sds`:

* A record is Stay when some window of consecutive records containing it has
  all pairwise distances < delta_s and spans at least delta_t; otherwise it is
  Travel. The labeling is total (no abstention).
* Dense-window membership additionally requires every consecutive gap inside
  the window to be <= delta_t; that subset is what any single-trajectory
  labeler can possibly certify as Stay.
* The travel condition asks for witnesses at distance >= ``spatial`` strictly
  before and after the record, at most ``delta_t`` apart in time.

Everything here is quadratic-or-worse by design and guarded by a size limit;
it exists to check the fast labeler, not to replace it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    MobilityParams,
    Trajectory,
    codes_to_letters,
    default_ref_lat,
    project_to_meters,
)

ORACLE_LIMIT_DEFAULT = 200


class OracleLimitError(ValueError):
    """Trajectory too long for the exhaustive oracle."""


@dataclass(frozen=True, eq=False)
class OracleLabels:
    """Total Stay/Travel labeling produced by the exhaustive oracle."""

    labels: np.ndarray  # int8 codes, LABEL_STAY or LABEL_TRAVEL only

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int8)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def letters(self) -> list[str]:
        return codes_to_letters(self.labels)


def _check_limit(traj: Trajectory, limit: int) -> None:
    if len(traj) > limit:
        raise OracleLimitError(
            f"trajectory has {len(traj)} records, oracle limit is {limit}"
        )


def _dist2(traj: Trajectory, ref_lat: float | None) -> np.ndarray:
    if ref_lat is None:
        ref_lat = default_ref_lat(traj)
    x, y = project_to_meters(traj.lons, traj.lats, ref_lat)
    return (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2


def _pairwise_reach(d2: np.ndarray, s2: float, cap: np.ndarray | None = None) -> np.ndarray:
    """reach[p] = largest q such that all pairs within [p, q] are < delta_s.

    Monotone in p, so a two-pointer sweep needs each new-point-vs-window check
    only once. ``cap`` optionally bounds the reach (used for the gap rule).
    """
    n = d2.shape[0]
    reach = np.empty(n, dtype=np.int64)
    q = 0
    for p in range(n):
        if q < p:
            q = p
        limit = n - 1 if cap is None else int(cap[p])
        while q < limit and bool((d2[q + 1, p : q + 1] < s2).all()):
            q += 1
        reach[p] = q
    return reach


def _flag_windows(times: np.ndarray, reach: np.ndarray, delta_t: float) -> np.ndarray:
    """Union of [p, reach[p]] over all p whose maximal window spans delta_t."""
    n = len(times)
    flags = np.zeros(n, dtype=bool)
    for p in range(n):
        q = int(reach[p])
        if times[q] - times[p] >= delta_t:
            flags[p : q + 1] = True
    return flags


def exact_label(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> OracleLabels:
    """Total Stay/Travel labeling by window semantics (declarative, not the
    windowed labeler's control flow). A lone record is Travel: no two-record
    window exists to certify a dwell."""
    _check_limit(traj, limit)
    n = len(traj)
    if n == 0:
        return OracleLabels(np.zeros(0, dtype=np.int8))
    d2 = _dist2(traj, ref_lat)
    reach = _pairwise_reach(d2, params.delta_s * params.delta_s)
    stay = _flag_windows(traj.times, reach, params.delta_t)
    return OracleLabels(np.where(stay, LABEL_STAY, LABEL_TRAVEL).astype(np.int8))


def dense_stay_membership(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> np.ndarray:
    """Boolean flag per record: member of some qualifying window whose
    internal gaps are all <= delta_t (see module docstring)."""
    _check_limit(traj, limit)
    n = len(traj)
    if n == 0:
        return np.zeros(0, dtype=bool)
    d2 = _dist2(traj, ref_lat)
    gaps = np.diff(traj.times)
    blocking = np.nonzero(gaps > params.delta_t)[0]
    # cap[p] = last index reachable from p without crossing a gap > delta_t
    cap = np.full(n, n - 1, dtype=np.int64)
    for b in blocking[::-1]:
        cap[: b + 1] = np.minimum(cap[: b + 1], b)
    reach = _pairwise_reach(d2, params.delta_s * params.delta_s, cap=cap)
    return _flag_windows(traj.times, reach, params.delta_t)


def dense_stay_windows(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> list[tuple[int, int]]:
    """Maximal qualifying dense windows as inclusive (p, q) index pairs.

    Only the tests call this. They check these windows against
    :func:`dense_stay_membership` and the simulator's continuous dwells, and
    their per-removal leave-one-out check runs it on every remainder as the
    reference for :func:`sparsemob.evaluate.local_consistency_check`, which
    decides each removal without building windows. Not size-limited: it
    builds the n x n distance matrix and the sweep is O(L^2).
    """
    n = len(traj)
    if n == 0:
        return []
    d2 = _dist2(traj, ref_lat)
    gaps = np.diff(traj.times)
    cap = np.full(n, n - 1, dtype=np.int64)
    for b in np.nonzero(gaps > params.delta_t)[0][::-1]:
        cap[: b + 1] = np.minimum(cap[: b + 1], b)
    reach = _pairwise_reach(d2, params.delta_s * params.delta_s, cap=cap)
    out: list[tuple[int, int]] = []
    best_q = -1
    for p in range(n):
        q = int(reach[p])
        if traj.times[q] - traj.times[p] >= params.delta_t and q > best_q:
            # skip windows nested in an earlier maximal one
            out.append((p, q))
            best_q = q
    return out


def travel_condition(
    traj: Trajectory,
    index: int,
    spatial: float,
    delta_t: float,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> bool:
    """Brute-force bilateral witness check for record ``index`` (0-based).

    True iff there exist p < index < q with d(index, p) >= spatial,
    d(index, q) >= spatial, and t_q - t_p <= delta_t. Endpoint records are
    never travel-witnessed (one side is empty).
    """
    _check_limit(traj, limit)
    n = len(traj)
    if not 0 <= index < n:
        raise IndexError(f"record index {index} out of range for length {n}")
    if index == 0 or index == n - 1:
        return False
    d2 = _dist2(traj, ref_lat)
    s2 = spatial * spatial
    t = traj.times
    for p in range(index):
        if d2[index, p] < s2:
            continue
        for q in range(index + 1, n):
            if d2[index, q] >= s2 and t[q] - t[p] <= delta_t:
                return True
    return False


def travel_condition_all(
    traj: Trajectory,
    spatial: float,
    delta_t: float,
    *,
    ref_lat: float | None = None,
    limit: int = ORACLE_LIMIT_DEFAULT,
) -> np.ndarray:
    """Vectorized :func:`travel_condition` for every record at once.

    Same any-pair semantics; used by the bulk agreement checks.
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
