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
arrays: the stay pass cuts the trajectory into runs and finds the windows
of long ones, and the travel pass tests its short reach, and scans past it
for every record whose delta_t reach is wide, in whole-array steps. What
these steps leave (short loose stay runs, and the few witness scans of
sparse data) goes record by record, on memoryviews of the arrays and of
the block boxes: an index yields the Python float or int a list would, and
a view costs nothing per record to make, so a call whose scans read a few
hundred records pays for those alone.
Every other module labels through _joined_codes, at the labeler's radii,
and _recall_pools, at the recall pools' radii; both read them from
``core.radii``, the one rule that derives radii from delta_s. Both take
consecutive trajectories and label them through _joined_flags, in one
kernel call per radius pair where int64 times allow (_joined_times, which
``evaluate``'s leave-one-out check joins by too). recall_bounds gives
every trajectory of a file its recall bounds from one call of each, as
``sparsemob bounds`` does; sds_label is the form for one Trajectory.

* Stay pass: grow a window of consecutive records while every pair stays
  within one third of delta_s; when a new record breaks that bound against
  some window member, flush the window as Stay if it spans at least delta_t,
  and restart just past the offending member. One third of the diameter
  budget per hop (record-to-record plus the unobserved detours on either
  side) is what makes the certificate sound. A time gap > delta_t ends the
  window the way the trajectory's end does, and the next one starts at the
  gap. The pass yields each record's window head: the first record of the
  longest such window ending at it. Whole-array steps first cut the
  trajectory into runs at such gaps and at each record that escapes the one
  before it, where a window always ends. A run whose bounding box has a
  diagonal under the radius is one window, whose start is every record's
  head. The other runs of more than SUPER records, as at 1 Hz, find their
  heads together in whole-array rounds (_stay_lockstep); only the shorter
  ones go record by record, so sparse data rarely reaches the loop (at
  delta_s/3, 2 of 31,776 runs in the label-sparse benchmark, and 8 of
  81,621 in the experiment's, none of them long). The windows to flush,
  and so the Stay flags, then follow from the heads in whole-array steps.
  The leave-one-out check of ``evaluate`` reads the heads at the dense
  radius, delta_s.
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
are one search: the record nearest a front, in a range from that front to
an end, both included, at the radius or more. _far_scan runs it record by
record, backward or forward, and _far_lockstep for many queries at once.
It steps over a block of BLOCK consecutive records at once when the
farthest corner of the block's bounding box is closer than the radius
sought: no record in it can escape or witness. A second level does the same
for a superblock of SUPER = BLOCK * BLOCK records, tested only while more
than one block of the scan range remains, so a short scan pays one integer
comparison for it, and once per scan: a superblock whose box reaches the
radius is walked block by block without testing it again. On densely
sampled data, where delta_t holds thousands of records, a scan over records
that stay within the radius then costs about one step per superblock
instead of one per record. After an escape the stay pass rebuilds the
window's box from the window's own records, at most SUPER of them.

Both passes compare squared planar distances against squared thresholds; ties
resolve as: distance >= threshold escapes/witnesses, distance < threshold
keeps a window member.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LabeledTrajectory,
    MobilityParams,
    Trajectory,
    planar,
    radii,
)

#: records per bounding box in the scans' block skip
BLOCK = 16
#: records per superblock box: BLOCK consecutive blocks
SUPER = BLOCK * BLOCK
#: offsets the travel pass tests as whole arrays before it scans
SHORT_REACH = BLOCK // 2
#: cells (queries x boxes) of one banded array step of the lockstep scans
LOCKSTEP_CELLS = 1 << 14


def _block_boxes(x: np.ndarray, y: np.ndarray) -> tuple:
    """Bounding boxes of blocks of BLOCK consecutive records (the last block
    repeats the final record as padding) and of superblocks of BLOCK
    consecutive blocks: xmin, xmax, ymin and ymax of the blocks, then of the
    superblocks, as memoryviews, which the scalar scans index; then the same
    boxes as one (4, blocks) and one (4, superblocks) array, which the
    lockstep scans read."""
    n = len(x)
    m = -(-n // BLOCK)
    pad = np.empty((2, m * BLOCK))
    pad[0, :n] = x
    pad[1, :n] = y
    pad[:, n:] = pad[:, n - 1 : n]
    pad = pad.reshape(2, m, BLOCK)
    blocks = np.empty((4, m))
    pad.min(axis=2, out=blocks[::2])
    pad.max(axis=2, out=blocks[1::2])
    first = np.arange(0, m, BLOCK)
    supers = np.empty((4, len(first)))
    np.minimum.reduceat(blocks[::2], first, axis=1, out=supers[::2])
    np.maximum.reduceat(blocks[1::2], first, axis=1, out=supers[1::2])
    return (*map(memoryview, blocks), *map(memoryview, supers), blocks, supers)


def _far_scan(xs, ys, boxes, cx, cy, r2, front, end, step) -> int:
    """The index nearest ``front`` in the range from front to end, both
    included, at squared distance >= r2 from (cx, cy), or -1: the search of
    _far_lockstep for one query, record by record. It runs backward for
    step -1 and forward for step 1; a range whose end lies behind its front
    is empty.

    A block or superblock whose farthest box corner is closer than the radius
    holds no such record, so the scan steps over it whole.
    """
    bxmin, bxmax, bymin, bymax, sxmin, sxmax, symin, symax = boxes[:8]
    # the offsets of a block's and a superblock's last record in scan order
    edge, super_edge = (BLOCK - 1, SUPER - 1) if step > 0 else (0, 0)
    reached = -1  # the last superblock whose box reaches the radius
    while (end - front) * step >= 0:
        k = front // BLOCK
        last = k * BLOCK + edge
        more = (end - last) * step > 0  # the range goes on past block k
        s = k // BLOCK
        if more and s != reached:
            dx = sxmax[s] - cx if sxmax[s] - cx > cx - sxmin[s] else cx - sxmin[s]
            dy = symax[s] - cy if symax[s] - cy > cy - symin[s] else cy - symin[s]
            if dx * dx + dy * dy < r2:
                front = s * SUPER + super_edge + step
                continue
            reached = s
        dx = bxmax[k] - cx if bxmax[k] - cx > cx - bxmin[k] else cx - bxmin[k]
        dy = bymax[k] - cy if bymax[k] - cy > cy - bymin[k] else cy - bymin[k]
        if dx * dx + dy * dy >= r2:
            for i in range(front, (last if more else end) + step, step):
                ddx = cx - xs[i]
                ddy = cy - ys[i]
                if ddx * ddx + ddy * ddy >= r2:
                    return i
        front = last + step
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
    """_far_scan for many queries at once, with its arguments and result as
    arrays: for each query q, the index nearest front[q] in the range from
    front[q] to end[q], both included, at squared distance >= r2 from
    (cx[q], cy[q]), or -1. ``supers`` and ``blocks`` hold the superblock and
    block boxes as xmin, xmax, ymin and ymax arrays.

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


def _time_limits(t: np.ndarray, delta_t: float) -> tuple[int, int]:
    """Integer thresholds for the time differences d of the records ``t``:
    d < delta_t iff d <= near, and d <= delta_t iff d <= close, as
    ``(near, close)``. numpy would compare int64 against a float through
    float64, which rounds large ones, so the span is a Python int; a
    delta_t past the whole span clamps both to the span."""
    span = int(t[-1]) - int(t[0])
    if delta_t <= span:
        return math.ceil(delta_t) - 1, math.floor(delta_t)
    return span, span


def _stay_run(xs, ys, boxes, esc2, start, end) -> list[int]:
    """The stay pass record by record over the run [start, end), which has
    no gap over delta_t: the head of each of its records. Runs of more than
    SUPER records take _stay_lockstep instead, which finds the same heads at
    a lower cost per record but a higher one per call; so a window here
    holds at most SUPER records, and after an escape its box is rebuilt
    from its own records."""
    head = start
    heads = [start]
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
            anchor = _far_scan(xs, ys, boxes, cx, cy, esc2, cursor - 1, head, -1)
        if anchor < 0:
            heads.append(head)
            if cx < xmin:
                xmin = cx
            elif cx > xmax:
                xmax = cx
            if cy < ymin:
                ymin = cy
            elif cy > ymax:
                ymax = cy
            continue
        # inside a run the record before the cursor never escapes it, so the
        # new window holds at least two records
        head = anchor + 1
        heads.append(head)
        xmin, xmax = min(xs[head : cursor + 1]), max(xs[head : cursor + 1])
        ymin, ymax = min(ys[head : cursor + 1]), max(ys[head : cursor + 1])
    return heads


def _range_table(blocks) -> np.ndarray:
    """A sparse table over the m block boxes for _range_admit: row [L, k] is
    the box of blocks k .. k + 2**L - 1 (clipped to the last) as (xmin,
    -xmax, ymin, -ymax), so that the elementwise minimum of two rows is the
    box of their union; row [L, m] is empty."""
    m = blocks.shape[1]
    table = np.full((max(m.bit_length(), 1), m + 1, 4), np.inf)
    table[0, :m] = blocks.T
    table[0, :m, 1::2] *= -1.0
    for level in range(1, len(table)):
        step = 1 << (level - 1)
        half = table[level - 1]
        table[level] = half
        np.minimum(half[: m - step], half[step:m], out=table[level, : m - step])
    return table


def _range_admit(table, rows, r2, query, first, last, part, which) -> np.ndarray:
    """For each query q, True when every point of box rows[query[q]] lies at
    squared distance < r2 from every point of a box holding blocks first[q]
    .. last[q] and box part[which[q]]: no record in the second box is that
    far from one in the first. Where last[q] < first[q] the second box holds
    block first[q] instead, which is still sound. The queries go in chunks
    whose boxes hold LOCKSTEP_CELLS cells."""
    width = table.shape[1]
    table = table.reshape(-1, 4)
    out = np.empty(len(query), dtype=bool)
    for i in range(0, len(query), LOCKSTEP_CELLS // 4):
        q = slice(i, i + LOCKSTEP_CELLS // 4)
        level = np.frexp(np.maximum(last[q] - first[q] + 1, 1))[1] - 1
        one = level * width + first[q]
        two = np.maximum(one, one + last[q] - first[q] + 1 - (1 << level))
        box = np.minimum(table.take(one, axis=0), table.take(two, axis=0))
        np.minimum(box, part.take(which[q], axis=0), out=box)
        p = rows.take(query[q], axis=0)
        d = np.maximum(-box[:, 1::2] - p[:, ::2], -p[:, 1::2] - box[:, ::2])
        d *= d
        out[q] = d[:, 0] + d[:, 1] < r2
    return out


def _stay_lockstep(x, y, boxes, esc2, starts, ends) -> np.ndarray:
    """_stay_run over the runs [starts[i], ends[i]) at once: an array whose
    entries in each run are the heads of its records.

    heads(c) = max(heads(c - 1), A(c) + 1), where A(c) is the nearest record
    before c at escape or more from it: the running maximum of the A(c) + 1
    found, seeded with each run's start. That maximum up to c - 1, ``lb``,
    bounds heads(c - 1) from below, so c needs its A only if it is lb or
    later. A query is the cursors of a block or, once its box tests fail,
    one cursor; ``top`` is its highest record not yet ruled out. Each round
    a box admit rules out lb .. top, or else one rules out the window of the
    last ``width`` records (cut at a block start), or else each cursor's
    window is scanned for its A by _far_lockstep. The window grows fourfold
    each round.
    """
    blocks, supers = boxes[8:]
    n, m = len(x), blocks.shape[1]
    # key[c]: A(c) + 1 once found; a run's start keys itself
    key = np.zeros(n, dtype=np.int64)
    key[starts] = starts
    # each query: its first cursor c, its number of cursors, and the row of
    # its box in ``rows``
    c, size = [], []
    for s, e in zip(starts.tolist(), ends.tolist()):
        k = np.arange((s + 1) // BLOCK, (e - 1) // BLOCK + 1) * BLOCK
        c.append(np.maximum(k, s + 1))
        size.append(np.minimum(k + BLOCK, e) - c[-1])
    c, size = np.concatenate(c), np.concatenate(size)
    query = c // BLOCK
    top = c + size - 2
    table = _range_table(blocks)
    rows = np.concatenate((table[0, :m], np.stack((x, -x, y, -y), axis=1)))
    bound = np.maximum.accumulate(key)
    width = SUPER
    while len(c):
        lb = bound[c - 1]
        # lb never falls along c: the box of the records from each lb to its
        # block's end, once per lb
        new = np.diff(lb, prepend=-1) != 0
        low = lb[new, None]
        band = np.minimum(np.minimum(low + np.arange(BLOCK), low | (BLOCK - 1)), n - 1)
        bx, by = x[band], y[band]
        part = np.stack((bx.min(1), -bx.max(1), by.min(1), -by.max(1)), axis=1)
        keep = (top >= lb) & ~_range_admit(
            table, rows, esc2, query, lb // BLOCK + 1, top // BLOCK, part, np.cumsum(new) - 1
        )
        c, size, query, top, lb = c[keep], size[keep], query[keep], top[keep], lb[keep]
        lo = np.maximum(lb, -(-(top - width + 1) // BLOCK) * BLOCK)
        scan = lo == lb
        cut = ~scan
        # the window's first block is a row of ``rows`` too
        k = lo[cut] // BLOCK
        scan[cut] = ~_range_admit(table, rows, esc2, query[cut], k + 1, top[cut] // BLOCK, rows, k)
        # the cursors of a block that failed go on one by one
        count = np.where(scan, size, 1)
        at = np.repeat(np.arange(len(c)), count)
        c = c[at] + np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
        scan, lo = scan[at], lo[at]
        size = np.where(scan, 1, size[at])
        query = np.where(scan, m + c, query[at])
        top = np.where(scan, np.minimum(top[at], c - 1), top[at])
        q = c[scan]
        a = _far_lockstep(x, y, supers, blocks, x[q], y[q], esc2, top[scan], lo[scan], -1)
        hit = a >= 0
        key[q[hit]] = a[hit] + 1
        keep = ~scan
        keep[scan] = ~hit
        c, size, query, top = c[keep], size[keep], query[keep], lo[keep] - 1
        bound = np.maximum.accumulate(key)
        width *= 4
    return bound


def _stay_heads(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    xs: Sequence[float],
    ys: Sequence[float],
    boxes: tuple,
    escape: float,
    delta_t: float,
) -> np.ndarray:
    """The stay windows of the whole trajectory (planar coords), as the head
    of each record: ``heads[c]`` is the first record of the longest window
    ending at c in which every pair is closer than ``escape`` and every gap
    is at most delta_t.

    The trajectory is first cut into runs, in whole-array steps: a window
    starts afresh at a gap over delta_t, and at a record that escapes the
    record before it, which _far_scan finds first, so in both cases at
    that record. A run whose bounding box has a diagonal under the radius is
    one window, its start the head of each of its records, as the corner
    test admits each of its cursors (float subtraction is monotone, so no
    corner distance exceeds the diagonal). Of the other runs, those of more
    than SUPER records find their heads together in _stay_lockstep, and the
    rest go record by record in _stay_run, whose windows so hold at most
    SUPER records.
    """
    esc2 = escape * escape
    close = _time_limits(t, delta_t)[1]
    dx = np.diff(x)
    dy = np.diff(y)
    cut = np.flatnonzero((np.diff(t) > close) | (dx * dx + dy * dy >= esc2)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.append(cut, len(t))
    w = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    h = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
    heads = np.repeat(starts, ends - starts)
    loose = np.flatnonzero(w * w + h * h >= esc2)
    if len(t) > SUPER:  # else no run is long enough
        size = ends[loose] - starts[loose]
        long = loose[size > SUPER]
        if len(long):
            bound = _stay_lockstep(x, y, boxes, esc2, starts[long], ends[long])
            for s, e in zip(starts[long].tolist(), ends[long].tolist()):
                heads[s:e] = bound[s:e]
            loose = loose[size <= SUPER]
    for s, e in zip(starts[loose].tolist(), ends[loose].tolist()):
        heads[s:e] = _stay_run(xs, ys, boxes, esc2, s, e)
    return heads


def _stay_pass(t: np.ndarray, heads: np.ndarray, delta_t: float) -> np.ndarray:
    """Windowed stay detection from the heads of ``_stay_heads``.

    A window ends where the head changes, at an escape or a gap over
    delta_t, and at the trajectory's end. It is flushed if it spans delta_t
    (d >= delta_t iff d > near): each such window proves a stay, and the
    detected set is the dense-window membership of the oracle. A record is
    Stay when the running maximum of the flushed windows' ends, over the
    windows starting at it or before, reaches it.
    """
    n = len(t)
    near = _time_limits(t, delta_t)[0]
    ends = np.append(np.flatnonzero(heads[1:] != heads[:-1]), n - 1)
    first = heads[ends]
    flush = t[ends] - t[first] > near
    # windows end in order, and each starts past the one before
    reach = np.full(n, -1)
    reach[first[flush]] = ends[flush]
    return np.maximum.accumulate(reach) >= np.arange(n)


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """For each column of a 2-D bool array whose last row is all True, the
    first row that holds True: ``rows.argmax(axis=0)``, as two whole-row
    steps per row instead of a reduction along each short column. A running
    OR of the rows turns True in a column at its first True row, and the
    rows before the last where it is still False number that row. The
    count takes the smallest unsigned type that holds the row count, and
    adds the OR's bytes as they are."""
    seen = np.zeros(rows.shape[1], dtype=bool)
    count = np.zeros(rows.shape[1], dtype=np.min_scalar_type(len(rows)))
    for row in rows[:-1]:
        seen |= row
        count += seen.view(np.uint8)
    return len(rows) - 1 - count


def _travel_pass(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    xs: memoryview,
    ys: memoryview,
    ts: memoryview,
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
    n = len(t)
    flags = np.zeros(n, dtype=bool)
    w2 = witness * witness
    near, close = _time_limits(t, delta_t)

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
    # the nearest witness on each side within SHORT_REACH records, by a
    # running OR down the rows rather than a reduction along each column
    k_left = _first_rows(hits[:, :n]) + 1
    k_right = _first_rows(ahead) + 1
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
    # the reach lo..hi of each, both included: the records less than delta_t
    # away, with the sums clamped to the span so that int64 never wraps
    tr = t[rest]
    lo = np.searchsorted(t, tr - np.minimum(near, tr - t[0]))
    hi = np.searchsorted(t, tr + np.minimum(near, t[-1] - tr), side="right") - 1
    # a reach of more than a superblock scans in lockstep with the others
    wide = hi - lo >= SUPER
    if wide.any():
        q = rest[wide]
        l, r = left[q], right[q]
        cx, cy = x[q], y[q]
        blocks, supers = boxes[8:]
        s = l < 0
        l[s] = _far_lockstep(
            x, y, supers, blocks, cx[s], cy[s], w2, q[s] - k0 - 1, lo[wide][s], -1
        )
        s = (r < 0) & (l >= 0)
        r[s] = _far_lockstep(
            x, y, supers, blocks, cx[s], cy[s], w2, q[s] + k0 + 1, hi[wide][s], 1
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
            l = _far_scan(xs, ys, boxes, cx, cy, w2, i - k0 - 1, a, -1)
            if l < 0:
                continue
        if r < 0:
            r = _far_scan(xs, ys, boxes, cx, cy, w2, i + k0 + 1, b, 1)
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
) -> tuple[np.ndarray, np.ndarray]:
    """Stay and travel flags for a whole trajectory in planar coordinates.

    Runs the stay pass at ``escape`` and then the travel pass at ``witness``
    skipping the stay flags just computed; a pass whose radius is None is
    not run and its flags are all False. With ``witness`` at least
    ``escape`` the skip never changes a travel flag: a stay window
    containing the record keeps every member below the witness distance,
    and witness pairs outside it straddle its >= delta_t span and so fail
    the window test. So ``escape=None`` gives the travel flags of any
    ``escape`` up to ``witness``, without the stay pass. The stay pass
    finds each record's window head (``_stay_heads``) and flags the windows
    those heads delimit (``_stay_pass``).

    ``t`` holds strictly increasing int64 seconds; every time test against
    ``delta_t`` is exact, whatever the magnitudes. The record-by-record
    scans read memoryviews of the arrays, which need C-contiguous ones in
    native byte order: other inputs are copied to float64 and int64 first.

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
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.int64)
    xs, ys, ts = memoryview(x), memoryview(y), memoryview(t)
    boxes = _block_boxes(x, y)
    if escape is not None:
        heads = _stay_heads(x, y, t, xs, ys, boxes, escape, delta_t)
        stay = _stay_pass(t, heads, delta_t)
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
    x, y = planar(traj, ref_lat)
    return LabeledTrajectory(traj, _joined_codes(x, y, traj.times, [len(traj)], params))


def _joined_codes(x, y, t, sizes, params: MobilityParams):
    """int8 label codes of consecutive trajectories in planar coordinates,
    each as if labeled alone (see ``_joined_flags``).

    The labeler's radii, from ``core.radii``: the stay pass escapes at
    ``escape`` and travel witnesses lie at ``witness`` or more.
    """
    r = radii(params)
    stay, travel = _joined_flags(x, y, t, sizes, params.delta_t, r.escape, r.witness)
    return (stay * LABEL_STAY + travel * LABEL_TRAVEL).astype(np.int8)


def _recall_pools(
    x, y, t, sizes, params: MobilityParams
) -> tuple[np.ndarray, np.ndarray]:
    """The records any labeler of each trajectory alone could flag, for
    consecutive trajectories in planar coordinates as in ``_joined_codes``:
    dense-window members at the ``dense`` radius of ``core.radii``, and
    records with bilateral witnesses at its ``travel_pool`` radius, from the
    travel pass alone."""
    r, d_t = radii(params), params.delta_t
    stay = _joined_flags(x, y, t, sizes, d_t, r.dense, None)[0]
    travel = _joined_flags(x, y, t, sizes, d_t, None, r.travel_pool)[1]
    return stay, travel


def _joined_times(t, sizes, delta_t) -> tuple[np.ndarray, list[int]]:
    """Consecutive trajectories' times joined in time, in as few runs as
    int64 allows, and the cuts between those runs.

    ``t`` holds the trajectories' times one after another, ``sizes`` their
    lengths. Each trajectory's times are rebased to start ``floor(delta_t)
    + 1`` s after the previous one ends, and the kernel labels across a gap
    longer than delta_t as it labels separate trajectories. A trajectory
    whose joined times would reach 2**63 starts a new run at 0, and when
    the gap itself does not fit, each one is its own run. The cuts are the
    first record of each run, then ``len(t)``.
    """
    gap = math.floor(delta_t) + 1 if delta_t < 2**63 - 1 else None
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    heads = ends - sizes
    first = t[heads]
    spans = (t[ends - 1] - first).tolist()
    starts = []
    cuts = []
    end = None
    for a, span in zip(heads.tolist(), spans):
        if end is not None and gap is not None and end + gap + span < 2**63:
            start = end + gap
        else:
            start = 0
            cuts.append(a)
        starts.append(start)
        end = start + span
    joined = t - np.repeat(first, sizes)
    joined += np.repeat(np.array(starts, dtype=np.int64), sizes)
    cuts.append(len(t))
    return joined, cuts


def _joined_flags(x, y, t, sizes, delta_t, escape, witness):
    """``label_kernel``'s stay and travel flags of consecutive trajectories,
    each as if labeled alone, in one kernel call per run of ``_joined_times``."""
    joined, cuts = _joined_times(t, sizes, delta_t)
    stay = np.zeros(len(t), dtype=bool)
    travel = np.zeros(len(t), dtype=bool)
    for a, b in zip(cuts, cuts[1:]):
        stay[a:b], travel[a:b] = label_kernel(
            x[a:b], y[a:b], joined[a:b], delta_t, escape, witness
        )
    return stay, travel


def recall_bounds(x, y, t, sizes, params: MobilityParams) -> tuple[np.ndarray, np.ndarray]:
    """Lower bounds on the recall achievable from each trajectory alone, for
    consecutive trajectories in planar coordinates as in ``_joined_codes``:
    each trajectory's stay and travel bounds, as two float arrays.

    Stay: the labeler's stays over the dense-window members at the
    ``dense`` radius, delta_s (no labeler relying only on the trajectory
    can do better than the latter set). Travel: the labeler's travels over
    records with witnesses at the ``travel_pool`` radius, delta_s/2 (the
    corresponding outer bound). ``core.radii`` sets both; see
    ``_recall_pools``. Empty denominators yield a vacuous bound of 1.0.
    One ``_joined_codes`` and one ``_recall_pools`` call serve every
    trajectory; ``np.bincount`` counts each one's flagged records. One
    Trajectory's bounds are ``recall_bounds(*planar(traj, ref_lat),
    traj.times, [len(traj)], params)``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    codes = _joined_codes(x, y, t, sizes, params)
    pools = _recall_pools(x, y, t, sizes, params)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    bounds = []
    for code, pool in zip((LABEL_STAY, LABEL_TRAVEL), pools):
        num = np.bincount(owner[codes == code], minlength=len(sizes))
        den = np.bincount(owner[pool], minlength=len(sizes))
        with np.errstate(invalid="ignore", divide="ignore"):
            bounds.append(np.where(den > 0, num / den, 1.0))
    return bounds[0], bounds[1]
