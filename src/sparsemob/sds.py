"""Single-trajectory stay/travel labeling for temporally sparse data.

The labeler answers, per record, one of three things: the device was
provably stopped (Stay), provably moving (Travel), or the data is too sparse
to certify either (Unlabeled). It never guesses: flagged labels carry a
geometric guarantee under the bounded-detour assumption that between two
observations close in time and space the device does not wander far from
them.

Pipeline (label_kernel): slice the trajectory at time gaps > delta_t
(core.segment_bounds), then run two passes over each dense segment:

* Stay pass: grow a window of consecutive records while every pair stays
  within one third of delta_s; when a new record breaks that bound against
  some window member, flush the window as Stay if it spans at least delta_t,
  and restart just past the offending member. One third of the diameter
  budget per hop (record-to-record plus the unobserved detours on either
  side) is what makes the certificate sound.
* Travel pass: a record not flagged Stay is Travel when it has a witness at
  distance >= delta_s on each side, with the two witnesses at most delta_t
  apart. Any fixed-length window covering the record then also covers a
  witness, so its diameter breaks the stay bound.

Both passes compare squared planar distances against squared thresholds; ties
resolve as: distance >= threshold escapes/witnesses, distance < threshold
keeps a window member.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    MobilityParams,
    Trajectory,
    codes_to_letters,
    default_ref_lat,
    project_to_meters,
    segment_bounds,
)

AdmitHook = Callable[[int, int], None]


@dataclass(frozen=True, eq=False)
class LabeledTrajectory:
    """A trajectory plus one label code per record (see core label codes)."""

    trajectory: Trajectory
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int8)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        if len(labels) != len(self.trajectory):
            raise ValueError("labels length must match the trajectory")
        if len(labels) and (labels.min() < 0 or labels.max() > 2):
            raise ValueError("unknown label code")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.trajectory)

    def letters(self) -> list[str]:
        return codes_to_letters(self.labels)


@dataclass(frozen=True)
class RecallBounds:
    """Per-trajectory lower bounds on achievable stay/travel recall."""

    stay_bound: float
    travel_bound: float

    def __post_init__(self) -> None:
        for name, v in (("stay_bound", self.stay_bound), ("travel_bound", self.travel_bound)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} out of [0, 1]: {v}")


def _stay_pass(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    escape: float,
    delta_t: float,
    tail_flush: bool = True,
    on_admit: AdmitHook | None = None,
) -> np.ndarray:
    """Windowed stay detection over one dense segment (planar coords).

    Returns a boolean flag per record. ``escape`` is the pairwise distance at
    which a window breaks. ``on_admit(head, cursor)`` fires whenever a cursor
    joins the window without an escape; tests use it to check the window
    invariant exhaustively.
    """
    n = len(t)
    flags = np.zeros(n, dtype=bool)
    if n < 2:
        return flags
    esc2 = escape * escape
    head = 0
    # Bounding box of window positions [head, cursor-1]. If the cursor is
    # closer than `escape` to the farthest box corner it cannot escape against
    # any member, which keeps the common grow-the-window step O(1).
    xmin = xmax = x[0]
    ymin = ymax = y[0]
    for cursor in range(1, n):
        cx = x[cursor]
        cy = y[cursor]
        dx = xmax - cx if xmax - cx > cx - xmin else cx - xmin
        dy = ymax - cy if ymax - cy > cy - ymin else cy - ymin
        if dx * dx + dy * dy < esc2:
            anchor = -1
        else:
            anchor = -1
            for a in range(cursor - 1, head - 1, -1):
                ddx = cx - x[a]
                ddy = cy - y[a]
                if ddx * ddx + ddy * ddy >= esc2:
                    anchor = a
                    break
        if anchor < 0:
            if on_admit is not None:
                on_admit(head, cursor)
            if cx < xmin:
                xmin = cx
            elif cx > xmax:
                xmax = cx
            if cy < ymin:
                ymin = cy
            elif cy > ymax:
                ymax = cy
            continue
        # The window up to the previous record is flushed if it already spans
        # the dwell threshold; the cursor itself is not part of that window.
        if t[cursor - 1] - t[head] >= delta_t:
            flags[head:cursor] = True
        head = anchor + 1
        xs = x[head : cursor + 1]
        ys = y[head : cursor + 1]
        xmin = xs.min()
        xmax = xs.max()
        ymin = ys.min()
        ymax = ys.max()
    if tail_flush and t[n - 1] - t[head] >= delta_t:
        # Without this flush the final window is silently dropped and the
        # detected set no longer matches the dense-window membership oracle.
        flags[head:] = True
    return flags


def _travel_pass(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    stay_flags: np.ndarray,
    witness: float,
    delta_t: float,
) -> np.ndarray:
    """Bilateral-witness travel detection over one dense segment."""
    n = len(t)
    flags = np.zeros(n, dtype=bool)
    w2 = witness * witness
    for cursor in range(1, n - 1):
        if stay_flags[cursor]:
            continue
        cx = x[cursor]
        cy = y[cursor]
        ct = t[cursor]
        # Nearest left witness. Anything further back than delta_t cannot
        # close a window with a right witness, so the scan stops there; the
        # flag decision is unchanged because such witnesses always fail the
        # window test anyway.
        left = -1
        for a in range(cursor - 1, -1, -1):
            if ct - t[a] >= delta_t:
                break
            ddx = cx - x[a]
            ddy = cy - y[a]
            if ddx * ddx + ddy * ddy >= w2:
                left = a
                break
        if left < 0:
            continue
        right = -1
        for b in range(cursor + 1, n):
            if t[b] - ct >= delta_t:
                break
            ddx = cx - x[b]
            ddy = cy - y[b]
            if ddx * ddx + ddy * ddy >= w2:
                right = b
                break
        if right < 0:
            continue
        if t[right] - t[left] <= delta_t:
            flags[cursor] = True
    return flags


def label_kernel(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    delta_t: float,
    escape: float,
    witness: float | None,
    *,
    tail_flush: bool = True,
    on_admit: AdmitHook | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stay and travel flags for a whole trajectory in planar coordinates.

    Slices at time gaps > ``delta_t`` and runs, per dense segment, the stay
    pass at ``escape`` and then, unless ``witness`` is None, the travel pass
    at ``witness`` skipping the stay flags just computed. With ``witness`` at
    least ``escape`` the skip never changes a travel flag: a stay window
    containing the record keeps every member below the witness distance, and
    witness pairs outside it straddle its >= delta_t span and so fail the
    window test. ``on_admit(head, cursor)`` receives whole-trajectory indices.
    """
    stay = np.zeros(len(t), dtype=bool)
    travel = np.zeros(len(t), dtype=bool)
    for s, e in segment_bounds(t, delta_t):
        hook = on_admit
        if on_admit is not None:
            def hook(head: int, cursor: int, s: int = s) -> None:
                on_admit(s + head, s + cursor)
        xs, ys, ts = x[s:e], y[s:e], t[s:e]
        seg_stay = _stay_pass(xs, ys, ts, escape, delta_t, tail_flush, hook)
        stay[s:e] = seg_stay
        if witness is not None:
            travel[s:e] = _travel_pass(xs, ys, ts, seg_stay, witness, delta_t)
    return stay, travel


def _project(
    traj: Trajectory, ref_lat: float | None
) -> tuple[np.ndarray, np.ndarray]:
    # an empty trajectory has no default reference latitude and needs none
    if ref_lat is None:
        ref_lat = default_ref_lat(traj) if len(traj) else 0.0
    return project_to_meters(traj.lons, traj.lats, ref_lat)


def sds_label(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    tail_flush: bool = True,
) -> LabeledTrajectory:
    """Label every record Stay, Travel, or Unlabeled.

    Deterministic: equal inputs give bitwise-equal labels. A single record (or
    any segment too sparse to certify anything) stays Unlabeled.
    """
    x, y = _project(traj, ref_lat)
    stay, travel = label_kernel(
        x, y, traj.times, params.delta_t, params.delta_s / 3.0, params.delta_s,
        tail_flush=tail_flush,
    )
    codes = np.full(len(traj), LABEL_UNLABELED, dtype=np.int8)
    codes[stay] = LABEL_STAY
    codes[travel] = LABEL_TRAVEL
    return LabeledTrajectory(traj, codes)


def stay_flags_at(
    traj: Trajectory,
    params: MobilityParams,
    spatial: float,
    *,
    ref_lat: float | None = None,
    tail_flush: bool = True,
) -> np.ndarray:
    """Whole-trajectory stay flags with the stay pass run at ``spatial``.

    With the tail flush on, this is exactly the set of records contained in
    some window of consecutive records with pairwise distances < ``spatial``,
    span >= delta_t, and internal gaps <= delta_t (the discrete dense-stay
    membership), which is what the recall accounting counts.
    """
    x, y = _project(traj, ref_lat)
    return label_kernel(
        x, y, traj.times, params.delta_t, spatial, None, tail_flush=tail_flush
    )[0]


def travel_flags_at(
    traj: Trajectory,
    params: MobilityParams,
    witness: float,
    *,
    ref_lat: float | None = None,
    tail_flush: bool = True,
) -> np.ndarray:
    """Whole-trajectory travel flags with the travel pass run at ``witness``.

    The stay skip uses the standard delta_s/3 stay flags, which for witness
    thresholds >= delta_s/3 never changes the outcome (see label_kernel).
    """
    x, y = _project(traj, ref_lat)
    return label_kernel(
        x, y, traj.times, params.delta_t, params.delta_s / 3.0, witness,
        tail_flush=tail_flush,
    )[1]


def recall_lower_bounds(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
    tail_flush: bool = True,
) -> RecallBounds:
    """Lower-bound the recall achievable from this trajectory alone.

    Stay: records certified at the conservative escape distance delta_s/3,
    over records that are dense-window members at delta_s (no labeler relying
    only on this trajectory can do better than the latter set, which is why
    its pass always flushes the final window). Travel: records with bilateral
    witnesses at delta_s, over records with witnesses at delta_s/2 (the
    corresponding outer bound). Empty denominators yield a vacuous bound of
    1.0.
    """
    x, y = _project(traj, ref_lat)
    d_s, d_t = params.delta_s, params.delta_t
    certified_stay, witnessed_half = label_kernel(
        x, y, traj.times, d_t, d_s / 3.0, d_s / 2.0, tail_flush=tail_flush
    )
    dense_stay, certified_travel = label_kernel(x, y, traj.times, d_t, d_s, d_s)
    s_num, s_den = int(certified_stay.sum()), int(dense_stay.sum())
    t_num, t_den = int(certified_travel.sum()), int(witnessed_half.sum())
    stay_bound = 1.0 if s_den == 0 else s_num / s_den
    travel_bound = 1.0 if t_den == 0 else t_num / t_den
    return RecallBounds(stay_bound=stay_bound, travel_bound=travel_bound)
