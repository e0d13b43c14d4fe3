"""Single-trajectory stay/travel labeling for temporally sparse data.

The labeler answers, per record, one of three things: the device was
provably stopped (Stay), provably moving (Travel), or the data is too sparse
to certify either (Unlabeled). It never guesses: flagged labels carry a
geometric guarantee under the bounded-detour assumption that between two
observations close in time and space the device does not wander far from
them.

Pipeline (label_kernel): two passes over the whole trajectory, each run
only when it is given its radius (escape=None runs the travel pass alone).
Each pass does most of its work over all records at once, on the numpy
arrays: the stay pass cuts the trajectory into runs, and the travel pass
tests its short reach, and scans past it for every record whose delta_t
reach is wide, in whole-array steps. What these steps leave (loose stay
runs, and the few witness scans of sparse data) goes record by record, on
Python lists (indexing numpy scalars costs several times more per step).
The labeler's radii, delta_s/3 and delta_s, are set in _joined_codes, and
the recall pools' radii, delta_s and delta_s/2, in _recall_pools; every
other module labels through these two. Both take consecutive trajectories
and label them through _joined_flags, in one kernel call per radius pair
where int64 times allow.

* Stay pass: grow a window of consecutive records while every pair stays
  within one third of delta_s; when a new record breaks that bound against
  some window member, flush the window as Stay if it spans at least delta_t,
  and restart just past the offending member. One third of the diameter
  budget per hop (record-to-record plus the unobserved detours on either
  side) is what makes the certificate sound. A time gap > delta_t ends the
  window the way the trajectory's end does, and the next one starts at the
  gap. Whole-array steps first cut the trajectory into runs at such gaps
  and at each record that escapes the one before it, where a window always
  ends. A run whose bounding box has a diagonal under the radius is one
  window; only the other runs go record by record, so sparse data rarely
  reaches the loop (at delta_s/3, 2 of 31,776 runs in the label-sparse
  benchmark, and 8 of 81,621 in the experiment's).
* Travel pass: a record not flagged Stay is Travel when it has a witness at
  distance >= delta_s on each side, with the two witnesses at most delta_t
  apart. Any fixed-length window covering the record then also covers a
  witness, so its diameter breaks the stay bound. Only witnesses less than
  delta_t away in time count, so none across a gap > delta_t. The
  SHORT_REACH nearest records on each side are tested for all records at
  once, which in sparse data covers nearly all that delta_t reaches; a
  record that finds no witness there scans on past them, up to delta_t.
  Where that reach holds more than SUPER records, as at 1 Hz, the records
  scan in lockstep: the superblock boxes in reach of each, then the blocks
  of its nearest superblock that reaches the radius, then the records of
  its nearest such block, each level one array step for all of them. The
  other records scan one by one, which costs less for the few per call of
  sparse data.

Both the stay pass's backward search for an escape and the witness scans
step over a block of BLOCK consecutive records at once when the farthest
corner of the block's bounding box is closer than the radius sought: no
record in it can escape or witness. A second level does the same for a
superblock of SUPER = BLOCK * BLOCK records, tested only while more than one
block of the scan range remains, so a short scan pays one integer comparison
for it, and once per scan: a superblock whose box reaches the radius is
walked block by block without testing it again. On densely sampled data,
where delta_t holds thousands of records, a scan over records that stay
within the radius then costs about one step per superblock instead of one
per record. After an escape the stay pass rebuilds the window's box from
the block boxes of the full blocks inside it and the records of its partial
ends.

Both passes compare squared planar distances against squared thresholds; ties
resolve as: distance >= threshold escapes/witnesses, distance < threshold
keeps a window member.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
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
#: offsets the travel pass tests as whole arrays before it scans
SHORT_REACH = BLOCK // 2
#: cells (queries x boxes) of one banded array step of the lockstep scans
LOCKSTEP_CELLS = 1 << 14


@dataclass(frozen=True)
class RecallBounds:
    """Per-trajectory lower bounds on achievable stay/travel recall."""

    stay_bound: float
    travel_bound: float

    def __post_init__(self) -> None:
        for name, v in (("stay_bound", self.stay_bound), ("travel_bound", self.travel_bound)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} out of [0, 1]: {v}")


def _block_boxes(x: np.ndarray, y: np.ndarray) -> tuple:
    """Bounding boxes as eight lists: xmin, xmax, ymin, ymax of each block of
    BLOCK consecutive records (the last block repeats the final record as
    padding), then the same of each superblock of BLOCK consecutive blocks;
    then the block boxes once more as one (4, blocks) array, which the
    lockstep scans read."""
    m = -(-len(x) // BLOCK)
    idx = np.minimum(np.arange(m * BLOCK), len(x) - 1).reshape(m, BLOCK)
    bx = x[idx]
    by = y[idx]
    array = np.stack((bx.min(axis=1), bx.max(axis=1), by.min(axis=1), by.max(axis=1)))
    blocks = array.tolist()
    # plain Python, which costs less than numpy reductions on the short
    # trajectories of sparse data
    supers = [
        [pick(v[k : k + BLOCK]) for k in range(0, m, BLOCK)]
        for pick, v in zip((min, max, min, max), blocks)
    ]
    return (*blocks, *supers, array)


def _far_before(xs, ys, boxes, cx, cy, r2, a, lo) -> int:
    """Largest index in [lo, a] at squared distance >= r2 from (cx, cy), or -1.

    A block or superblock whose farthest box corner is closer than the radius
    holds no such record, so the scan steps over it whole.
    """
    bxmin, bxmax, bymin, bymax, sxmin, sxmax, symin, symax = boxes[:8]
    reached = -1  # the last superblock whose box reaches the radius
    while a >= lo:
        k = a // BLOCK
        first = k * BLOCK
        s = k // BLOCK
        if first > lo and s != reached:
            dx = sxmax[s] - cx if sxmax[s] - cx > cx - sxmin[s] else cx - sxmin[s]
            dy = symax[s] - cy if symax[s] - cy > cy - symin[s] else cy - symin[s]
            if dx * dx + dy * dy < r2:
                a = s * SUPER - 1
                continue
            reached = s
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
    bxmin, bxmax, bymin, bymax, sxmin, sxmax, symin, symax = boxes[:8]
    reached = -1
    while b < hi:
        k = b // BLOCK
        stop = k * BLOCK + BLOCK
        s = k // BLOCK
        if stop < hi and s != reached:
            dx = sxmax[s] - cx if sxmax[s] - cx > cx - sxmin[s] else cx - sxmin[s]
            dy = symax[s] - cy if symax[s] - cy > cy - symin[s] else cy - symin[s]
            if dx * dx + dy * dy < r2:
                b = s * SUPER + SUPER
                continue
            reached = s
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


def _first_reach(boxes, cx, cy, r2, start, stop, step) -> np.ndarray:
    """For each query q, the first of the boxes start[q], start[q] + step, ...,
    stop[q] with a corner at squared distance >= r2 from (cx[q], cy[q]), or
    -1. ``boxes`` holds xmin, xmax, ymin and ymax arrays; a record is the box
    of its own point.

    The queries test one band of as many boxes as the longest range holds
    (a shorter range repeats its last box), in chunks of queries that keep
    each band within LOCKSTEP_CELLS cells. The distances are the scalar
    scans' own float operations, so the tests agree exactly.
    """
    xmin, xmax, ymin, ymax = boxes
    out = np.full(len(start), -1)
    offsets = step * np.arange(int(((stop - start) * step).max()) + 1)[:, None]
    clip = np.minimum if step > 0 else np.maximum
    cols = max(1, LOCKSTEP_CELLS // len(offsets))
    for a in range(0, len(start), cols):
        u = clip(start[a : a + cols] + offsets, stop[a : a + cols])
        px = cx[a : a + cols]
        py = cy[a : a + cols]
        dx = np.maximum(xmax[u] - px, px - xmin[u])
        dy = np.maximum(ymax[u] - py, py - ymin[u])
        reach = dx * dx + dy * dy >= r2
        first = u[reach.argmax(axis=0), np.arange(u.shape[1])]
        out[a : a + cols] = np.where(reach.any(axis=0), first, -1)
    return out


def _far_lockstep(x, y, supers, blocks, cx, cy, r2, front, end, step) -> np.ndarray:
    """_far_before (step -1) or _far_after (step 1) for many queries at once:
    for each query q, the index nearest front[q] in the range from front[q]
    to end[q], both included, at squared distance >= r2 from (cx[q], cy[q]),
    or -1. ``supers`` and ``blocks`` hold the superblock and block boxes as
    xmin, xmax, ymin and ymax arrays.

    Each round tests, for every query still searching, the superblocks its
    range reaches, then the blocks of the nearest superblock whose box
    reaches the radius, then the records of the nearest such block. A query
    whose hit held no witness goes on past the hit in the next round.
    """
    levels = ((supers, SUPER), (blocks, BLOCK), ((x, x, y, y), 1))
    front = front.copy()
    found = np.full(len(front), -1)
    live = np.flatnonzero((end - front) * step >= 0)
    while len(live):
        q = live
        f, e = front[q], end[q]
        for boxes, size in levels:
            u = _first_reach(boxes, cx[q], cy[q], r2, f // size, e // size, step)
            hit = u >= 0
            # no witness through the end of the range tested
            front[q[~hit]] = e[~hit] + step
            q, u = q[hit], u[hit]
            if len(q) == 0:
                break
            if size == 1:
                found[q] = u
            else:
                # the part of the range inside the hit
                first, last = u * size, u * size + size - 1
                f = np.clip(f[hit], first, last)
                e = np.clip(e[hit], first, last)
        live = live[(found[live] < 0) & ((end[live] - front[live]) * step >= 0)]
    return found


def _time_limits(ts: list[int], delta_t: float) -> tuple[int, int]:
    """Integer thresholds for the time differences d of the records ``ts``:
    d < delta_t iff d <= near, and d <= delta_t iff d <= close, as
    ``(near, close)``. numpy would compare int64 against a float through
    float64, which rounds large ones; a delta_t past the whole span clamps
    both to the span."""
    span = ts[-1] - ts[0]
    if delta_t <= span:
        return math.ceil(delta_t) - 1, math.floor(delta_t)
    return span, span


def _stay_run(xs, ys, ts, boxes, esc2, delta_t, start, end, flags, on_admit) -> int:
    """The stay pass record by record over the run [start, end), which has
    no gap over delta_t: flags each window that an escape inside the run
    ends, if it spans delta_t, and returns the head of the window open at
    the run's end."""
    bxmin, bxmax, bymin, bymax = boxes[:4]
    head = start
    # Bounding box of window positions [head, cursor-1]. If the cursor is
    # closer than `escape` to the farthest box corner it cannot escape against
    # any member, which keeps the common grow-the-window step O(1).
    xmin = xmax = xs[start]
    ymin = ymax = ys[start]
    for cursor in range(start + 1, end):
        cx = xs[cursor]
        cy = ys[cursor]
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
        # inside a run the record before the cursor never escapes it, so the
        # new window holds at least two records
        head = anchor + 1
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
    return head


def _stay_pass(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    xs: list[float],
    ys: list[float],
    ts: list[int],
    boxes: tuple,
    escape: float,
    delta_t: float,
    on_admit: AdmitHook | None,
) -> np.ndarray:
    """Windowed stay detection over the whole trajectory (planar coords).

    ``escape`` is the pairwise distance at which a window breaks; a gap
    > delta_t ends the window as the trajectory's end does. ``on_admit(head,
    cursor)`` fires, in cursor order, whenever a cursor joins the window
    without an escape; tests use it to check the window invariant
    exhaustively.

    The trajectory is first cut into runs, in whole-array steps: a window
    ends at a gap over delta_t, and at a record that escapes the record
    before it, which _far_before finds first, so in both cases the next
    window starts at that record. A run whose bounding box has a diagonal
    under the radius is one window, as the corner test admits each of its
    cursors (float subtraction is monotone, so no corner distance exceeds
    the diagonal). Only the other runs go record by record, in _stay_run.
    """
    n = len(ts)
    esc2 = escape * escape
    near, close = _time_limits(ts, delta_t)
    dx = np.diff(x)
    dy = np.diff(y)
    cut = np.flatnonzero((np.diff(t) > close) | (dx * dx + dy * dy >= esc2)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.append(cut, n)
    w = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    h = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
    loose = w * w + h * h >= esc2
    flags = np.zeros(n, dtype=bool)
    heads = starts.copy()
    walk = np.arange(len(starts)) if on_admit is not None else np.flatnonzero(loose)
    for k, s, e, slow in zip(
        walk.tolist(), starts[walk].tolist(), ends[walk].tolist(), loose[walk].tolist()
    ):
        if slow:
            heads[k] = _stay_run(
                xs, ys, ts, boxes, esc2, delta_t, s, e, flags, on_admit
            )
        else:
            for c in range(s + 1, e):
                on_admit(s, c)
    # The window open at a run's end is [head, end). It is flushed if it
    # spans delta_t (d >= delta_t iff d > near), whether the run ends at an
    # escape, at a gap or at the trajectory's end: each such window proves a
    # stay, and the detected set is the dense-window membership of the oracle.
    flush = t[ends - 1] - t[heads] > near
    edges = np.zeros(n + 1, dtype=np.int8)
    edges[heads[flush]] += 1
    edges[ends[flush]] -= 1
    flags |= np.cumsum(edges[:n]) > 0
    return flags


def _travel_pass(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    xs: list[float],
    ys: list[float],
    ts: list[int],
    boxes: tuple,
    stay_flags: np.ndarray,
    witness: float,
    delta_t: float,
) -> np.ndarray:
    """Bilateral-witness travel detection over the whole trajectory.

    Only witnesses less than delta_t from the cursor count: one further
    away cannot close a window with one on the other side, and a gap
    > delta_t lies beyond that reach. Offsets 1..SHORT_REACH are tested in
    one whole-array step each, where a witness out of reach fails the test
    of the two witnesses' time apart. A record that is not Stay and lacks a
    witness on a side that its reach extends past scans on from offset
    SHORT_REACH + 1, up to delta_t, so no scan crosses such a gap. Records
    whose reach holds more than SUPER records scan all at once
    (_far_lockstep); the rest, every record of sparse data, one by one.
    """
    n = len(ts)
    flags = np.zeros(n, dtype=bool)
    w2 = witness * witness
    near, close = _time_limits(ts, delta_t)

    k0 = SHORT_REACH
    width = n + k0 + 1
    # hits[k - 1, j]: records j - k and j are at least `witness` apart; row
    # k0 is all hits, so that a first hit in row k0 means none nearer
    hits = np.zeros((k0 + 1, width), dtype=bool)
    hits[k0] = True
    for k in range(1, min(k0, n - 1) + 1):
        dx = x[k:] - x[:-k]
        dy = y[k:] - y[:-k]
        np.greater_equal(dx * dx + dy * dy, w2, out=hits[k - 1, k:n])
    # the same hits keyed by the earlier record: row k - 1, column i holds
    # hits[k - 1, i + k]
    ahead = as_strided(hits.reshape(-1)[1:], (k0 + 1, n), (width + 1, 1))
    # the nearest witness on each side within SHORT_REACH records
    k_left = hits[:, :n].argmax(axis=0) + 1
    k_right = ahead.argmax(axis=0) + 1
    has_left = k_left <= k0
    has_right = k_right <= k0
    # records i and i + k0 + 1 are less than delta_t apart: a search from
    # either goes on past SHORT_REACH
    m = max(n - k0 - 1, 0)
    reach = t[n - m :] - t[:m] <= near
    more_left = np.zeros(n, dtype=bool)
    more_left[n - m :] = reach
    more_right = np.zeros(n, dtype=bool)
    more_right[:m] = reach
    # records that may yet be Travel: a witness on each side, or a reach to
    # scan for it
    todo = ~stay_flags & (has_left | more_left) & (has_right | more_right)
    idx = np.arange(n)
    left = np.where(has_left, idx - k_left, -1)
    right = np.where(has_right, idx + k_right, -1)
    done = todo & has_left & has_right
    flags[done] = t[right[done]] - t[left[done]] <= close

    rest = np.flatnonzero(todo & ~done)
    # the reach [lo, hi) of each: the records less than delta_t away, with
    # the sums clamped to the span so that int64 never wraps
    tr = t[rest]
    lo = np.searchsorted(t, tr - np.minimum(near, tr - t[0]))
    hi = np.searchsorted(t, tr + np.minimum(near, t[-1] - tr), side="right")
    # a reach of more than a superblock scans in lockstep with the others
    wide = hi - lo > SUPER
    if wide.any():
        q = rest[wide]
        l, r = left[q], right[q]
        cx, cy = x[q], y[q]
        supers, blocks = np.array(boxes[4:8]), boxes[8]
        s = l < 0
        l[s] = _far_lockstep(
            x, y, supers, blocks, cx[s], cy[s], w2, q[s] - k0 - 1, lo[wide][s], -1
        )
        s = (r < 0) & (l >= 0)
        r[s] = _far_lockstep(
            x, y, supers, blocks, cx[s], cy[s], w2, q[s] + k0 + 1, hi[wide][s] - 1, 1
        )
        s = (l >= 0) & (r >= 0)
        flags[q[s]] = t[r[s]] - t[l[s]] <= close
        rest, lo, hi = rest[~wide], lo[~wide], hi[~wide]
    found = []
    for i, l, r, a, b in zip(
        *(v.tolist() for v in (rest, left[rest], right[rest], lo, hi))
    ):
        cx = xs[i]
        cy = ys[i]
        if l < 0:
            l = _far_before(xs, ys, boxes, cx, cy, w2, i - k0 - 1, a)
            if l < 0:
                continue
        if r < 0:
            r = _far_after(xs, ys, boxes, cx, cy, w2, i + k0 + 1, b)
        if r >= 0 and ts[r] - ts[l] <= delta_t:
            found.append(i)
    flags[found] = True
    return flags


def label_kernel(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    delta_t: float,
    escape: float | None,
    witness: float | None,
    *,
    on_admit: AdmitHook | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stay and travel flags for a whole trajectory in planar coordinates.

    Runs the stay pass at ``escape`` and then the travel pass at ``witness``
    skipping the stay flags just computed; a pass whose radius is None is
    not run and its flags are all False. With ``witness`` at least
    ``escape`` the skip never changes a travel flag: a stay window
    containing the record keeps every member below the witness distance,
    and witness pairs outside it straddle its >= delta_t span and so fail
    the window test. So ``escape=None`` gives the travel flags of any
    ``escape`` up to ``witness``, without the stay pass.
    ``on_admit(head, cursor)`` receives record indices.

    ``t`` holds strictly increasing int64 seconds; every time test against
    ``delta_t`` is exact, whatever the magnitudes.

    Segments separated by a time gap of more than ``delta_t`` are labeled
    independently: each gets exactly the flags it would get alone, so
    several trajectories can be labeled in one call by joining them with
    such gaps (``_joined_flags``), which pays the per-call set-up of the
    whole-array steps once for all of them: ``sparsemob label`` labels a
    file, and the experiment a batch of trajectories and their thinned
    copies, in one call per radius pair.
    """
    stay = np.zeros(len(t), dtype=bool)
    travel = np.zeros(len(t), dtype=bool)
    if len(t) == 0:
        return stay, travel
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    boxes = _block_boxes(x, y)
    if escape is not None:
        stay = _stay_pass(x, y, t, xs, ys, ts, boxes, escape, delta_t, on_admit)
    if witness is not None:
        travel = _travel_pass(x, y, t, xs, ys, ts, boxes, stay, witness, delta_t)
    return stay, travel


def sds_label(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> LabeledTrajectory:
    """Label every record Stay, Travel, or Unlabeled.

    Deterministic: equal inputs give bitwise-equal labels. A single record (or
    any segment too sparse to certify anything) stays Unlabeled.
    """
    codes = _trajectory_codes([traj], params, ref_lat=ref_lat)
    return LabeledTrajectory(traj, codes)


def _trajectory_codes(trajectories, params, *, ref_lat=None):
    """int8 label codes of the trajectories' records, one trajectory after
    another, each as ``sds_label`` gives it alone."""
    if not trajectories:
        return np.zeros(0, dtype=np.int8)
    xy = [planar(traj, ref_lat) for traj in trajectories]
    return _joined_codes(
        np.concatenate([x for x, _ in xy]),
        np.concatenate([y for _, y in xy]),
        np.concatenate([traj.times for traj in trajectories]),
        [len(traj) for traj in trajectories],
        params,
    )


def _joined_codes(x, y, t, sizes, params: MobilityParams):
    """int8 label codes of consecutive trajectories in planar coordinates,
    each as if labeled alone (see ``_joined_flags``).

    The labeler's radii: the stay pass escapes at delta_s/3 and travel
    witnesses lie at delta_s or more.
    """
    d_s = params.delta_s
    stay, travel = _joined_flags(x, y, t, sizes, params.delta_t, d_s / 3.0, d_s)
    return (stay * LABEL_STAY + travel * LABEL_TRAVEL).astype(np.int8)


def _recall_pools(
    x, y, t, sizes, params: MobilityParams
) -> tuple[np.ndarray, np.ndarray]:
    """The records any labeler of each trajectory alone could flag, for
    consecutive trajectories in planar coordinates as in ``_joined_codes``:
    dense-window members at delta_s, and records with bilateral witnesses at
    delta_s/2, from the travel pass alone."""
    d_s, d_t = params.delta_s, params.delta_t
    stay = _joined_flags(x, y, t, sizes, d_t, d_s, None)[0]
    travel = _joined_flags(x, y, t, sizes, d_t, None, d_s / 2.0)[1]
    return stay, travel


def _joined_flags(x, y, t, sizes, delta_t, escape, witness):
    """``label_kernel``'s stay and travel flags of consecutive trajectories,
    each as if labeled alone, in as few kernel calls as int64 times allow.

    ``x``, ``y`` and ``t`` hold the trajectories one after another, ``sizes``
    their lengths. Each trajectory's times are rebased to start
    ``floor(delta_t) + 1`` s after the previous one ends, and the kernel
    labels across a gap longer than delta_t as it labels separate
    trajectories. A trajectory whose joined times would reach 2**63 starts a
    new call; when the gap itself does not fit, each one is its own call.

    A trajectory with more than SUPER records within delta_t of its first or
    last record is labeled alone: its scans run past a superblock there, and
    a superblock box that also holds a neighbour's records would make them
    walk it block by block.
    """
    gap = math.floor(delta_t) + 1 if delta_t < 2**63 - 1 else None
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    heads = ends - sizes
    first = t[heads]
    dense = sizes > SUPER
    lo, hi = heads[dense], ends[dense] - 1
    dense[dense] = (t[lo + SUPER] - t[lo] < delta_t) | (t[hi] - t[hi - SUPER] < delta_t)
    spans = (t[ends - 1] - first).tolist()
    starts = []
    cuts = []
    end = None
    for a, span, alone in zip(heads.tolist(), spans, dense.tolist()):
        if end is not None and not alone and gap is not None and end + gap + span < 2**63:
            start = end + gap
        else:
            start = 0
            cuts.append(a)
        starts.append(start)
        end = None if alone else start + span
    joined = t - np.repeat(first, sizes)
    joined += np.repeat(np.array(starts, dtype=np.int64), sizes)
    cuts.append(len(t))
    stay = np.zeros(len(t), dtype=bool)
    travel = np.zeros(len(t), dtype=bool)
    for a, b in zip(cuts, cuts[1:]):
        stay[a:b], travel[a:b] = label_kernel(
            x[a:b], y[a:b], joined[a:b], delta_t, escape, witness
        )
    return stay, travel


def recall_lower_bounds(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> RecallBounds:
    """Lower-bound the recall achievable from this trajectory alone.

    Stay: the labeler's stays over the dense-window members at delta_s (no
    labeler relying only on this trajectory can do better than the latter
    set). Travel: the labeler's travels over records with witnesses at
    delta_s/2 (the corresponding outer bound). See ``_recall_pools``. Empty
    denominators yield a vacuous bound of 1.0.
    """
    x, y = planar(traj, ref_lat)
    t = traj.times
    codes = _joined_codes(x, y, t, [len(t)], params)
    dense_stay, witnessed_half = _recall_pools(x, y, t, [len(t)], params)
    s_num = int((codes == LABEL_STAY).sum())
    t_num = int((codes == LABEL_TRAVEL).sum())
    s_den, t_den = int(dense_stay.sum()), int(witnessed_half.sum())
    stay_bound = 1.0 if s_den == 0 else s_num / s_den
    travel_bound = 1.0 if t_den == 0 else t_num / t_den
    return RecallBounds(stay_bound=stay_bound, travel_bound=travel_bound)
