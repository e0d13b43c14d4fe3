"""Single-trajectory stay/travel labeling for temporally sparse data.

The labeler answers, per record, one of three things: the device was
provably stopped (Stay), provably moving (Travel), or the data is too sparse
to certify either (Unlabeled). It never guesses: flagged labels carry a
geometric guarantee under the bounded-detour assumption that between two
observations close in time and space the device does not wander far from
them.

Pipeline (label_kernel): two passes over the whole trajectory, read from
Python lists (indexing numpy scalars costs several times more per step):

* Stay pass: grow a window of consecutive records while every pair stays
  within one third of delta_s; when a new record breaks that bound against
  some window member, flush the window as Stay if it spans at least delta_t,
  and restart just past the offending member. One third of the diameter
  budget per hop (record-to-record plus the unobserved detours on either
  side) is what makes the certificate sound. A time gap > delta_t ends the
  window the way the trajectory's end does, and the next one starts at the
  gap.
* Travel pass: a record not flagged Stay is Travel when it has a witness at
  distance >= delta_s on each side, with the two witnesses at most delta_t
  apart. Any fixed-length window covering the record then also covers a
  witness, so its diameter breaks the stay bound. The witness scans reach
  only records less than delta_t away in time, so they never cross a gap
  > delta_t.

Both the stay pass's backward search for an escape and the witness scans
step over a block of BLOCK consecutive records at once when the farthest
corner of the block's bounding box is closer than the radius sought: no
record in it can escape or witness. A second level does the same for a
superblock of SUPER = BLOCK * BLOCK records, tested only while more than one
block of the scan range remains, so a short scan pays one integer comparison
for it. On densely sampled data, where delta_t holds thousands of records,
a scan over records that stay within the radius then costs about one step
per superblock instead of one per record. After an escape the stay pass
rebuilds the window's box from the block boxes of the full blocks inside it
and the records of its partial ends.

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
    LabeledTrajectory,
    MobilityParams,
    Trajectory,
    planar,
)

AdmitHook = Callable[[int, int], None]

#: records per bounding box in the scans' block skip
BLOCK = 16
#: records per superblock box: BLOCK consecutive blocks
SUPER = BLOCK * BLOCK


@dataclass(frozen=True)
class RecallBounds:
    """Per-trajectory lower bounds on achievable stay/travel recall."""

    stay_bound: float
    travel_bound: float

    def __post_init__(self) -> None:
        for name, v in (("stay_bound", self.stay_bound), ("travel_bound", self.travel_bound)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} out of [0, 1]: {v}")


def _block_boxes(x: np.ndarray, y: np.ndarray) -> tuple[list[float], ...]:
    """Bounding boxes as eight lists: xmin, xmax, ymin, ymax of each block of
    BLOCK consecutive records (the last block repeats the final record as
    padding), then the same of each superblock of BLOCK consecutive blocks."""
    m = -(-len(x) // BLOCK)
    idx = np.minimum(np.arange(m * BLOCK), len(x) - 1).reshape(m, BLOCK)
    bx = x[idx]
    by = y[idx]
    blocks = (
        bx.min(axis=1).tolist(),
        bx.max(axis=1).tolist(),
        by.min(axis=1).tolist(),
        by.max(axis=1).tolist(),
    )
    # plain Python, which costs less than numpy reductions on the short
    # trajectories of sparse data
    supers = tuple(
        [pick(v[k : k + BLOCK]) for k in range(0, m, BLOCK)]
        for pick, v in zip((min, max, min, max), blocks)
    )
    return blocks + supers


def _far_before(xs, ys, boxes, cx, cy, r2, a, lo) -> int:
    """Largest index in [lo, a] at squared distance >= r2 from (cx, cy), or -1.

    A block or superblock whose farthest box corner is closer than the radius
    holds no such record, so the scan steps over it whole.
    """
    bxmin, bxmax, bymin, bymax, sxmin, sxmax, symin, symax = boxes
    while a >= lo:
        k = a // BLOCK
        first = k * BLOCK
        if first > lo:
            s = a // SUPER
            dx = sxmax[s] - cx if sxmax[s] - cx > cx - sxmin[s] else cx - sxmin[s]
            dy = symax[s] - cy if symax[s] - cy > cy - symin[s] else cy - symin[s]
            if dx * dx + dy * dy < r2:
                a = s * SUPER - 1
                continue
        dx = bxmax[k] - cx if bxmax[k] - cx > cx - bxmin[k] else cx - bxmin[k]
        dy = bymax[k] - cy if bymax[k] - cy > cy - bymin[k] else cy - bymin[k]
        if dx * dx + dy * dy >= r2:
            for i in range(a, (first if first > lo else lo) - 1, -1):
                ddx = cx - xs[i]
                ddy = cy - ys[i]
                if ddx * ddx + ddy * ddy >= r2:
                    return i
        a = first - 1
    return -1


def _far_after(xs, ys, boxes, cx, cy, r2, b, hi) -> int:
    """Smallest index in [b, hi) at squared distance >= r2 from (cx, cy), or
    -1; the mirror image of _far_before."""
    bxmin, bxmax, bymin, bymax, sxmin, sxmax, symin, symax = boxes
    while b < hi:
        k = b // BLOCK
        stop = k * BLOCK + BLOCK
        if stop < hi:
            s = b // SUPER
            dx = sxmax[s] - cx if sxmax[s] - cx > cx - sxmin[s] else cx - sxmin[s]
            dy = symax[s] - cy if symax[s] - cy > cy - symin[s] else cy - symin[s]
            if dx * dx + dy * dy < r2:
                b = s * SUPER + SUPER
                continue
        dx = bxmax[k] - cx if bxmax[k] - cx > cx - bxmin[k] else cx - bxmin[k]
        dy = bymax[k] - cy if bymax[k] - cy > cy - bymin[k] else cy - bymin[k]
        if dx * dx + dy * dy >= r2:
            for i in range(b, stop if stop < hi else hi):
                ddx = cx - xs[i]
                ddy = cy - ys[i]
                if ddx * ddx + ddy * ddy >= r2:
                    return i
        b = stop
    return -1


def _stay_pass(
    xs: list[float],
    ys: list[float],
    ts: list[int],
    boxes: tuple[list[float], ...],
    escape: float,
    delta_t: float,
    tail_flush: bool,
    on_admit: AdmitHook | None,
) -> np.ndarray:
    """Windowed stay detection over the whole trajectory (planar coords).

    ``escape`` is the pairwise distance at which a window breaks; a gap
    > delta_t ends the window as the trajectory's end does. ``on_admit(head,
    cursor)`` fires whenever a cursor joins the window without an escape;
    tests use it to check the window invariant exhaustively.
    """
    n = len(ts)
    flags = np.zeros(n, dtype=bool)
    esc2 = escape * escape
    bxmin, bxmax, bymin, bymax = boxes[:4]
    head = 0
    # Bounding box of window positions [head, cursor-1]. If the cursor is
    # closer than `escape` to the farthest box corner it cannot escape against
    # any member, which keeps the common grow-the-window step O(1).
    xmin = xmax = xs[0]
    ymin = ymax = ys[0]
    for cursor in range(1, n):
        cx = xs[cursor]
        cy = ys[cursor]
        if ts[cursor] - ts[cursor - 1] > delta_t:
            if tail_flush and ts[cursor - 1] - ts[head] >= delta_t:
                flags[head:cursor] = True
            head = cursor
            xmin = xmax = cx
            ymin = ymax = cy
            continue
        dx = xmax - cx if xmax - cx > cx - xmin else cx - xmin
        dy = ymax - cy if ymax - cy > cy - ymin else cy - ymin
        if dx * dx + dy * dy < esc2:
            anchor = -1
        else:
            anchor = _far_before(xs, ys, boxes, cx, cy, esc2, cursor - 1, head)
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
        if ts[cursor - 1] - ts[head] >= delta_t:
            flags[head:cursor] = True
        head = anchor + 1
        if head == cursor:
            xmin = xmax = cx
            ymin = ymax = cy
            continue
        # blocks k0..k1-1 lie whole in [head, cursor] and enter by their
        # boxes; the records of [head, first) and [last, cursor] by value
        k0 = -(-head // BLOCK)
        k1 = (cursor + 1) // BLOCK
        first = min(k0 * BLOCK, cursor + 1)
        last = max(k1 * BLOCK, first)
        wx = xs[head:first] + xs[last : cursor + 1]
        wy = ys[head:first] + ys[last : cursor + 1]
        xmin = min(bxmin[k0:k1] + wx)
        xmax = max(bxmax[k0:k1] + wx)
        ymin = min(bymin[k0:k1] + wy)
        ymax = max(bymax[k0:k1] + wy)
    if tail_flush and ts[n - 1] - ts[head] >= delta_t:
        # Without this flush the final window is silently dropped and the
        # detected set no longer matches the dense-window membership oracle.
        flags[head:] = True
    return flags


def _travel_pass(
    xs: list[float],
    ys: list[float],
    ts: list[int],
    boxes: tuple[list[float], ...],
    stay_flags: np.ndarray,
    witness: float,
    delta_t: float,
) -> np.ndarray:
    """Bilateral-witness travel detection over the whole trajectory.

    Each witness scan covers only records less than delta_t from the cursor:
    witnesses further away cannot close a window with one on the other side,
    and a gap > delta_t lies beyond that reach, so no scan crosses one.
    """
    n = len(ts)
    flags = np.zeros(n, dtype=bool)
    w2 = witness * witness
    stay = stay_flags.tolist()
    lo = 0  # first index less than delta_t before the cursor
    hi = 0  # first index at least delta_t after the cursor
    for cursor in range(1, n - 1):
        if stay[cursor]:
            continue
        ct = ts[cursor]
        while ct - ts[lo] >= delta_t:
            lo += 1
        cx = xs[cursor]
        cy = ys[cursor]
        left = _far_before(xs, ys, boxes, cx, cy, w2, cursor - 1, lo)
        if left < 0:
            continue
        while hi < n and ts[hi] - ct < delta_t:
            hi += 1
        right = _far_after(xs, ys, boxes, cx, cy, w2, cursor + 1, hi)
        if right >= 0 and ts[right] - ts[left] <= delta_t:
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

    Runs the stay pass at ``escape`` and then, unless ``witness`` is None,
    the travel pass at ``witness`` skipping the stay flags just computed.
    With ``witness`` at least ``escape`` the skip never changes a travel
    flag: a stay window containing the record keeps every member below the
    witness distance, and witness pairs outside it straddle its >= delta_t
    span and so fail the window test. ``on_admit(head, cursor)`` receives
    record indices.

    Segments separated by a time gap of more than ``delta_t`` are labeled
    independently: each gets exactly the flags it would get alone, so
    several trajectories can be labeled in one call by joining them with
    such gaps.
    """
    if len(t) == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    boxes = _block_boxes(x, y)
    stay = _stay_pass(xs, ys, ts, boxes, escape, delta_t, tail_flush, on_admit)
    if witness is None:
        return stay, np.zeros(len(t), dtype=bool)
    return stay, _travel_pass(xs, ys, ts, boxes, stay, witness, delta_t)


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
    x, y = planar(traj, ref_lat)
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
    x, y = planar(traj, ref_lat)
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
    x, y = planar(traj, ref_lat)
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
    x, y = planar(traj, ref_lat)
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
