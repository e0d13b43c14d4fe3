"""Shared test utilities: fixture builders and independent brute-force
reference implementations used for differential checks.

The brute-force functions here are deliberately literal (nested loops over
every window or pair) so they can serve as a second, independent route to
the same answers the library computes with pruned or vectorized scans.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from sparsemob.cli import DataError, _parse_time_text, _report_issues
from sparsemob.core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    METERS_PER_DEGREE,
    MobilityParams,
    Trajectory,
    planar,
    project_runs,
    radii,
)
from sparsemob.evaluate import (
    COVERAGE_BIN_EDGES,
    GAP_BIN_EDGES,
    ExperimentConfig,
    LocalConsistencyResult,
    experiment_trajectory,
)
from sparsemob.oracle import (
    ORACLE_LIMIT_DEFAULT,
    _check_limit,
    _dist2,
    _members,
    _windows,
)
from sparsemob.sds import (
    _block_boxes,
    _far_scan,
    _stay_heads,
    label_kernel,
    recall_bounds,
    sds_label,
)
from sparsemob.simulate import (
    CtrwConfig,
    GroundTruthPath,
    _power_law_transform,
    _search_label,
    resample,
)


def traj_from_meters(times, xs, ys=None, device="dev") -> Trajectory:
    """Build a trajectory from planar meter coordinates at the equator.

    At ref_lat = 0 the projection is an exact scaling, so planar distances
    in tests equal the library's distances to float round-off.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.zeros_like(xs) if ys is None else np.asarray(ys, dtype=np.float64)
    return Trajectory(
        device=device,
        times=np.asarray(times, dtype=np.int64),
        lons=xs / METERS_PER_DEGREE,
        lats=ys / METERS_PER_DEGREE,
    )


def minutes(*values) -> list[int]:
    return [int(v * 60) for v in values]


def write_records_csv(path, trajs) -> str:
    """Records CSV in the command-line tool's input layout."""
    with open(path, "w") as fh:
        fh.write("time,lon,lat,mid\n")
        for traj in trajs:
            for t, lon, lat in zip(traj.times, traj.lons, traj.lats):
                fh.write(f"{int(t)},{float(lon)!r},{float(lat)!r},{traj.device}\n")
    return str(path)


def write_labels_csv(path, rows) -> str:
    """Labels CSV from (device, time, letter) rows."""
    with open(path, "w") as fh:
        fh.write("mid,time,label\n")
        for mid, t, letter in rows:
            fh.write(f"{mid},{int(t)},{letter}\n")
    return str(path)


def random_trajectory(rng: np.random.Generator, max_len: int = 30) -> Trajectory:
    """Random mixed dense/sparse trajectory in planar meters.

    Gaps mix short (seconds to minutes) and long (hours) intervals; steps mix
    small in-place wobble with multi-kilometer jumps, so stay windows, travel
    witnesses, and segment cuts all occur with useful frequency.
    """
    n = int(rng.integers(1, max_len + 1))
    gap_pool = np.where(
        rng.random(max(n - 1, 0)) < 0.7,
        rng.integers(10, 600, size=max(n - 1, 0)),
        rng.integers(1801, 40000, size=max(n - 1, 0)),
    )
    times = np.concatenate(([0], np.cumsum(gap_pool))).astype(np.int64)
    steps = np.where(
        rng.random(n) < 0.6,
        rng.normal(0.0, 120.0, size=n),
        rng.normal(0.0, 2500.0, size=n),
    )
    xs = np.cumsum(steps)
    ys = np.cumsum(
        np.where(
            rng.random(n) < 0.6,
            rng.normal(0.0, 120.0, size=n),
            rng.normal(0.0, 2500.0, size=n),
        )
    )
    return traj_from_meters(times, xs, ys, device="rand")


def dense_trajectory(
    rng: np.random.Generator,
    *blocks: int,
    records: tuple[int, int] = (150, 400),
    gaps: tuple[int, int] = (1, 40),
) -> Trajectory:
    """Densely sampled trajectory in planar meters.

    It has ``records`` (low, high; inclusive) records with gaps of ``gaps``
    seconds (low, high; inclusive); the defaults put about ninety records
    inside a 30 min window. Dwell phases of small wobble alternate with
    moves of larger steps and kilometer jumps, each phase lasting about
    2,050 s on average. For each size in ``blocks``, single-record
    excursions of 600-1200 m sit on the first or last index of blocks of
    that many records, so the only escape or witness a scan can find in
    such a block is at its edge. The trajectory needs at least twice as
    many records as each block size.
    """
    n = int(rng.integers(records[0], records[1] + 1))
    times = np.concatenate(
        ([0], np.cumsum(rng.integers(gaps[0], gaps[1] + 1, size=n - 1)))
    )
    flip = (gaps[0] + gaps[1]) / 2.0 / 2050.0
    phase = np.cumsum(rng.random(n) < flip) % 2 == 0
    if rng.random() < 0.5:
        phase = ~phase

    def axis() -> np.ndarray:
        jump = rng.random(n) < 0.05
        move = np.where(jump, rng.normal(0.0, 1500.0, n), rng.normal(0.0, 60.0, n))
        return np.cumsum(np.where(phase, rng.normal(0.0, 3.0, n), move))

    xs, ys = axis(), axis()
    for block in blocks:
        count = int(rng.integers(1, n // (2 * block) + 1))
        starts = block * rng.choice(n // block, size=count, replace=False)
        edges = starts + rng.choice([0, block - 1], size=count)
        angle = rng.uniform(0.0, 2.0 * math.pi, count)
        reach = rng.uniform(600.0, 1200.0, count)
        xs[edges] += reach * np.cos(angle)
        ys[edges] += reach * np.sin(angle)
    return traj_from_meters(times, xs, ys, device="dense")


#: the smallest delta_s that MobilityParams accepts, 0x1.8p-510: the stay
#: pass's radius, delta_s / 3, squares to sys.float_info.min exactly there
SMALLEST_DELTA_S = 3.0 * 2.0**-511

#: shapes of :func:`one_hz_path`
ONE_HZ_KINDS = ("walk", "loop", "drift", "excursions", "ties")


def one_hz_path(rng: np.random.Generator, kind: str, n: int, radius: float):
    """Planar x, y of ``n`` records one second apart, shaped so that the
    stay pass at ``radius`` meets long loose runs:

    * ``walk``: a walk at 0.3 to 12 m/s whose heading wanders;
    * ``loop``: circles whose diameter lies within 20% of ``radius``;
    * ``drift``: a drift at 0.05 to 1 m/s under a few meters of noise;
    * ``excursions``: a dwell with one to three gradual excursions of
      0.5 to 3 ``radius`` and single-record spikes;
    * ``ties``: a lazy walk on a grid of 80 m, where records 800 m apart
      (offsets of 10 and 0, or 6 and 8 cells) tie the radius delta_s and
      box corners tie it too.
    """
    if kind == "walk":
        heading = np.cumsum(rng.normal(0.0, rng.uniform(0.01, 0.5), n))
        speed = rng.uniform(0.3, 12.0)
        return np.cumsum(speed * np.cos(heading)), np.cumsum(speed * np.sin(heading))
    if kind == "loop":
        r = 0.5 * radius * rng.uniform(0.8, 1.2)
        angle = 2.0 * math.pi * np.arange(n) / rng.uniform(60.0, 2000.0)
        return r * np.cos(angle) + rng.normal(0, 2, n), r * np.sin(angle) + rng.normal(0, 2, n)
    if kind == "drift":
        x = rng.uniform(0.05, 1.0) * np.arange(n)
        return x + rng.normal(0.0, 3.0, n), rng.normal(0.0, 3.0, n)
    if kind == "excursions":
        x = rng.normal(0.0, rng.uniform(1.0, 0.1 * radius), n)
        y = rng.normal(0.0, rng.uniform(1.0, 0.1 * radius), n)
        for _ in range(int(rng.integers(1, 4))):
            s = int(rng.integers(0, n))
            k = int(rng.integers(30, 1500))
            bump = radius * rng.uniform(0.5, 3.0) * np.sin(np.linspace(0.0, math.pi, k))
            x[s : s + k] += bump[: n - s]
        spikes = rng.random(n) < 0.005
        y[spikes] += radius * rng.uniform(1.0, 3.0, spikes.sum())
        return x, y
    xy = 80.0 * np.cumsum(rng.choice([-1, 0, 0, 0, 1], size=(n, 2)), axis=0)
    return xy[:, 0], xy[:, 1]


def planar_distance(a, b, ref_lat: float) -> float:
    """Planar-approximation distance in meters between (lon, lat) pairs.

    Latitude differences map to meters at ``METERS_PER_DEGREE``; longitude
    differences, taken the short way round the antimeridian, are scaled by
    cos(ref_lat). A scalar route to the distances the library takes from
    :func:`sparsemob.core.project_to_meters`.
    """
    k = METERS_PER_DEGREE
    dy = (a[1] - b[1]) * k
    dlon = a[0] - b[0]
    # the short way round the antimeridian
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    dx = dlon * k * math.cos(math.radians(ref_lat))
    return math.hypot(dx, dy)


def stay_flags_at(traj, params, spatial, *, ref_lat=None):
    """Stay flags of ``label_kernel``'s stay pass at ``spatial``: the records
    of some window of consecutive records with pairwise distances
    < ``spatial``, span >= delta_t and internal gaps <= delta_t (the
    discrete dense-stay membership; at ``radii(params).dense``, the stay
    pool)."""
    x, y = planar(traj, ref_lat)
    return label_kernel(x, y, traj.times, params.delta_t, spatial, None)[0]


def travel_flags_at(traj, params, witness, *, ref_lat=None):
    """Travel flags of ``label_kernel``'s travel pass at ``witness``, which
    skips the stay flags at the labeler's escape radius: for witness radii
    of at least that, the skip changes no flag."""
    x, y = planar(traj, ref_lat)
    return label_kernel(
        x, y, traj.times, params.delta_t, radii(params).escape, witness
    )[1]


def segment_bounds(times: np.ndarray, delta_t: float) -> list[tuple[int, int]]:
    """Half-open [start, stop) bounds of maximal runs with gaps <= delta_t.

    Cuts fall exactly at consecutive gaps strictly greater than ``delta_t``.
    """
    n = len(times)
    if n == 0:
        return []
    cuts = np.nonzero(np.diff(times) > delta_t)[0] + 1
    starts = np.concatenate(([0], cuts))
    stops = np.concatenate((cuts, [n]))
    return list(zip(starts.tolist(), stops.tolist()))


def reference_stay_pass(x, y, t, escape, delta_t) -> tuple[list[bool], list[int]]:
    """Stay flags and window heads from one record loop over the whole
    trajectory: the reference for ``label_kernel``'s stay pass, which cuts
    the trajectory into runs in whole-array steps first, and for the heads
    of ``sds._stay_heads``.

    A window grows while each cursor is closer than ``escape`` to every
    member, found through the corner of the window's bounding box or a
    backward scan for an escape. At an escape the window up to the previous
    record is flagged if it spans delta_t, and the next one starts just past
    the escaped member; a gap over delta_t ends the window as the
    trajectory's end does. A record's head is the head of the window just
    after the loop reached it. Every time test is Python's exact int/float
    comparison.
    """
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    boxes = _block_boxes(np.asarray(x), np.asarray(y))
    n = len(ts)
    flags = [False] * n
    esc2 = escape * escape
    head = 0
    heads = [0]
    xmin = xmax = xs[0]
    ymin = ymax = ys[0]
    for cursor in range(1, n):
        cx = xs[cursor]
        cy = ys[cursor]
        if ts[cursor] - ts[cursor - 1] > delta_t:
            if ts[cursor - 1] - ts[head] >= delta_t:
                flags[head:cursor] = [True] * (cursor - head)
            head = cursor
            heads.append(head)
            xmin = xmax = cx
            ymin = ymax = cy
            continue
        dx = max(xmax - cx, cx - xmin)
        dy = max(ymax - cy, cy - ymin)
        anchor = -1
        if dx * dx + dy * dy >= esc2:
            anchor = _far_scan(xs, ys, boxes, cx, cy, esc2, cursor - 1, head, -1)
        if anchor < 0:
            heads.append(head)
            xmin, xmax = min(xmin, cx), max(xmax, cx)
            ymin, ymax = min(ymin, cy), max(ymax, cy)
            continue
        if ts[cursor - 1] - ts[head] >= delta_t:
            flags[head:cursor] = [True] * (cursor - head)
        head = anchor + 1
        heads.append(head)
        xmin, xmax = min(xs[head : cursor + 1]), max(xs[head : cursor + 1])
        ymin, ymax = min(ys[head : cursor + 1]), max(ys[head : cursor + 1])
    if ts[n - 1] - ts[head] >= delta_t:
        flags[head:] = [True] * (n - head)
    return flags, heads


def stay_heads(x, y, t, escape, delta_t) -> np.ndarray:
    """``sds._stay_heads`` of a whole trajectory in planar coordinates."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.int64)
    return _stay_heads(
        x, y, t, memoryview(x), memoryview(y), _block_boxes(x, y), escape, delta_t
    )


def fit_power_law_exponent(samples: np.ndarray, lower: float) -> float:
    """Maximum-likelihood exponent of an (untruncated) power-law tail.

    Rough diagnostic for checking generated dwell/jump samples; the upper
    truncation biases it slightly low, which is fine for sanity bounds.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two samples")
    if lower <= 0 or (x < lower).any():
        raise ValueError("samples must be >= lower > 0")
    log_sum = float(np.log(x / lower).sum())
    if log_sum <= 0.0:
        raise ValueError("all samples at the lower bound; estimate diverges")
    return 1.0 + x.size / log_sum


def _xy(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    # equator-built fixtures only: inverse of traj_from_meters
    return traj.lons * METERS_PER_DEGREE, traj.lats * METERS_PER_DEGREE


def brute_stay_oracle(traj: Trajectory, delta_s: float, delta_t: float) -> np.ndarray:
    """Literal window enumeration: record i is a stay iff some index window
    [p, q] containing i spans >= delta_t with all pairwise distances < delta_s."""
    x, y = _xy(traj)
    t = traj.times
    n = len(t)
    out = np.zeros(n, dtype=bool)
    for p in range(n):
        for q in range(p + 1, n):
            if t[q] - t[p] < delta_t:
                continue
            ok = True
            for a in range(p, q + 1):
                for b in range(a + 1, q + 1):
                    if math.hypot(x[a] - x[b], y[a] - y[b]) >= delta_s:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out[p : q + 1] = True
    return out


def brute_dense_member(traj: Trajectory, delta_s: float, delta_t: float) -> np.ndarray:
    """Like brute_stay_oracle but the window must also have every
    consecutive gap <= delta_t."""
    x, y = _xy(traj)
    t = traj.times
    n = len(t)
    out = np.zeros(n, dtype=bool)
    for p in range(n):
        for q in range(p + 1, n):
            if t[q] - t[p] < delta_t:
                continue
            if any(t[k + 1] - t[k] > delta_t for k in range(p, q)):
                continue
            ok = True
            for a in range(p, q + 1):
                for b in range(a + 1, q + 1):
                    if math.hypot(x[a] - x[b], y[a] - y[b]) >= delta_s:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out[p : q + 1] = True
    return out


def brute_travel_witness(
    traj: Trajectory, i: int, spatial: float, delta_t: float
) -> bool:
    """Literal pair scan for a bilateral witness around record i."""
    x, y = _xy(traj)
    t = traj.times
    n = len(t)
    for p in range(i):
        if math.hypot(x[i] - x[p], y[i] - y[p]) < spatial:
            continue
        for q in range(i + 1, n):
            if math.hypot(x[i] - x[q], y[i] - y[q]) < spatial:
                continue
            if t[q] - t[p] <= delta_t:
                return True
    return False



def dense_stay_windows(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> list[tuple[int, int]]:
    """Maximal qualifying windows whose internal gaps are all <= delta_t, as
    inclusive (p, q) index pairs: all any single-trajectory labeler can
    possibly certify as Stay.

    No such window crosses a gap over delta_t, so the oracle's window sweep
    runs on each run of records between those gaps alone, with the distances
    of the whole trajectory's plane; a later run's windows end later, so the
    runs' windows in order are the trajectory's.

    The tests check these windows against the simulator's continuous dwells,
    and :func:`reference_local_consistency_check` runs it on every remainder
    as the reference for :func:`sparsemob.evaluate.local_consistency_check`,
    which decides each removal without building windows. Not size-limited:
    it builds the n x n distance matrix and the sweep is O(L^2).
    """
    t = traj.times.tolist()
    cuts = [0, *(k for k in range(1, len(t)) if t[k] - t[k - 1] > params.delta_t), len(t)]
    d2 = _dist2(traj, ref_lat)
    return [
        (a + p, a + q)
        for a, b in zip(cuts, cuts[1:])
        for p, q in _windows(d2[a:b, a:b], traj.times[a:b], params)
    ]


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

def fold_path_score(
    initial: np.ndarray,
    transition: np.ndarray,
    emission: np.ndarray,
    states: list[int],
    symbols: np.ndarray,
) -> float:
    """Log-probability of one state path, accumulated in the same order the
    decoder uses: (previous + log transition) + log emission at every step."""
    with np.errstate(divide="ignore"):
        log_init = np.log(initial)
        log_trans = np.log(transition)
        log_emis = np.log(emission)
    score = log_init[states[0]] + log_emis[states[0], symbols[0]]
    for k in range(1, len(states)):
        score = (score + log_trans[states[k - 1], states[k]]) + log_emis[
            states[k], symbols[k]
        ]
    return float(score)


def enumerate_best_score(
    initial: np.ndarray,
    transition: np.ndarray,
    emission: np.ndarray,
    symbols: np.ndarray,
) -> float:
    """Maximum path log-probability over all 2^L state paths."""
    n = len(symbols)
    best = -np.inf
    for mask in range(2**n):
        states = [(mask >> k) & 1 for k in range(n)]
        score = fold_path_score(initial, transition, emission, states, symbols)
        if score > best:
            best = score
    return best


def _reference_read_table(path: str, required: tuple[str, ...]):
    """Rows of a commented CSV plus the index of each required column."""
    rows: list[tuple[int, list[str]]] = []
    header: list[str] | None = None
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if header is None:
                    header = [c.strip() for c in row]
                    continue
                rows.append((lineno, row))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: missing header row")
    index: dict[str, int] = {}
    for name in required:
        if name not in header:
            raise DataError(f"{path}: missing required column {name!r}")
        index[name] = header.index(name)
    return index, rows


def reference_ingest(path: str, *, tz_offset: int, strict: bool) -> list[Trajectory]:
    """Row-by-row records ingest: the reference for ``cli.ingest``.

    One parse per row and a dict of per-device lists, sorted per device by
    (time, line). It has no time-range rule, so an out-of-range time reaches
    ``Trajectory`` (or int64) and raises there; give it times in range.
    """
    index, rows = _reference_read_table(path, ("time", "lon", "lat", "mid"))
    groups: dict[str, list[tuple[int, float, float, int]]] = {}
    issues: list[str] = []
    for lineno, row in rows:
        try:
            mid = row[index["mid"]].strip()
            if not mid:
                raise ValueError("empty device id")
            t = _parse_time_text(row[index["time"]], tz_offset)
            lon = float(row[index["lon"]])
            lat = float(row[index["lat"]])
            if not -180.0 <= lon <= 180.0:
                raise ValueError(f"longitude out of range: {lon}")
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"latitude out of range: {lat}")
        except (ValueError, IndexError) as exc:
            issues.append(f"{path}:{lineno}: {exc}")
            continue
        groups.setdefault(mid, []).append((t, lon, lat, lineno))
    trajectories: list[Trajectory] = []
    for mid in sorted(groups):
        records = sorted(groups[mid], key=lambda r: (r[0], r[3]))
        times: list[int] = []
        lons: list[float] = []
        lats: list[float] = []
        for t, lon, lat, lineno in records:
            if times and t == times[-1]:
                issues.append(
                    f"{path}:{lineno}: duplicate record for device {mid!r} at time {t}"
                )
                continue
            times.append(t)
            lons.append(lon)
            lats.append(lat)
        trajectories.append(
            Trajectory(
                device=mid,
                times=np.array(times, dtype=np.int64),
                lons=np.array(lons, dtype=np.float64),
                lats=np.array(lats, dtype=np.float64),
            )
        )
    _report_issues(issues, strict)
    return trajectories


def reference_read_labels(path: str) -> dict[tuple[str, int], int]:
    """Row-by-row labels reading: the reference for ``cli._read_labels``.

    Label codes keyed by (mid, time), in file order; the first row that
    does not parse, has an unknown letter or repeats a key is a data error
    naming its line.
    """
    index, rows = _reference_read_table(path, ("mid", "time", "label"))
    codes = {"S": LABEL_STAY, "T": LABEL_TRAVEL, "U": LABEL_UNLABELED}
    out: dict[tuple[str, int], int] = {}
    for lineno, row in rows:
        try:
            mid = row[index["mid"]].strip()
            t = int(row[index["time"]])
            letter = row[index["label"]].strip()
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if letter not in codes:
            raise DataError(f"{path}:{lineno}: unknown label letter: {letter!r}")
        if (mid, t) in out:
            raise DataError(f"{path}:{lineno}: duplicate label for ({mid!r}, {t})")
        out[mid, t] = codes[letter]
    return out


def _csv_text(kind: str, header, rows) -> str:
    """A CSV as the CLI writes it: version line, header, then rows whose
    cells read NA for None or NaN, ``repr`` for a float, ``str`` else."""

    def cell(value) -> str:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return "NA"
        return repr(value) if isinstance(value, float) else str(value)

    out = io.StringIO()
    out.write(f"# sparsemob {kind} v1\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in rows)
    return out.getvalue()


def reference_stats(
    trajs: list[Trajectory], params: MobilityParams, delta_ts, *, ref_lat=None
) -> tuple[str, str | None]:
    """Device-by-device ``stats``: the texts of its per-device CSV and of its
    sparsity report at the coverage thresholds ``delta_ts`` (None with no
    device, which has nothing to report). Each device's gaps come from
    ``np.diff`` of its own times and its label mix from ``sds_label``."""
    rows = []
    n_bins = len(GAP_BIN_EDGES) - 1
    devices = [0] * n_bins
    records = [0] * n_bins
    mix = [[0, 0, 0] for _ in range(n_bins)]  # stay, travel, unlabeled
    coverage = {dt: [] for dt in sorted(set(delta_ts))}
    for traj in trajs:
        n = len(traj)
        gaps = np.diff(traj.times)
        mean_gap = float(gaps.mean()) if n > 1 else None

        def covered(delta_t: float) -> float:
            wide = (gaps > delta_t).tolist()
            return (n - sum(map(bool.__and__, wide, wide[1:]))) / n

        rows.append((traj.device, n, int(traj.times[-1] - traj.times[0]), mean_gap,
                     covered(params.delta_t)))
        for dt, values in coverage.items():
            values.append(covered(dt))
        if mean_gap is None:
            continue
        b = int(np.searchsorted(GAP_BIN_EDGES, mean_gap, side="right")) - 1
        b = min(max(b, 0), n_bins - 1)
        devices[b] += 1
        records[b] += n
        letters = sds_label(traj, params, ref_lat=ref_lat).letters()
        for k, letter in enumerate("STU"):
            mix[b][k] += letters.count(letter)
    stats = _csv_text("stats", ["mid", "records", "span_seconds", "mean_gap", "coverage"], rows)
    if not trajs:
        return stats, None
    report = []
    for b in range(n_bins):
        total = sum(mix[b])
        report.append(
            ("gap_bin", float(GAP_BIN_EDGES[b]), float(GAP_BIN_EDGES[b + 1]), None, devices[b],
             records[b] / devices[b] if devices[b] else None,
             *[m / total if total else None for m in mix[b]])
        )
    for dt, values in coverage.items():
        counts = np.histogram(values, bins=COVERAGE_BIN_EDGES)[0].tolist()
        for b, count in enumerate(counts):
            report.append(
                ("coverage_bin", float(COVERAGE_BIN_EDGES[b]), float(COVERAGE_BIN_EDGES[b + 1]),
                 dt, count, None, None, None, None)
            )
    header = ["table", "lo", "hi", "delta_t", "devices", "mean_records",
              "stay_fraction", "travel_fraction", "unlabeled_fraction"]
    return stats, _csv_text("sparsity", header, report)


def trajectory_bounds(traj: Trajectory, params: MobilityParams, *, ref_lat=None):
    """``recall_bounds`` of one trajectory alone: its stay and travel bounds."""
    stay, travel = recall_bounds(*planar(traj, ref_lat), traj.times, [len(traj)], params)
    return float(stay[0]), float(travel[0])


def projected_corpus(trajs: list[Trajectory], *, ref_lat=None):
    """Trajectories' columns as the multi-device commands read them:
    x and y from one ``project_runs`` call, times and sizes."""
    sizes = [len(traj) for traj in trajs]
    columns = zip(*((traj.times, traj.lons, traj.lats) for traj in trajs))
    t, lons, lats = map(np.concatenate, columns)
    return (*project_runs(lons, lats, sizes, ref_lat), t, sizes)


def reference_bounds(trajs: list[Trajectory], params: MobilityParams, *, ref_lat=None) -> str:
    """Device-by-device ``bounds``: one ``recall_bounds`` call per device."""
    rows = [(traj.device, *trajectory_bounds(traj, params, ref_lat=ref_lat)) for traj in trajs]
    return _csv_text("bounds", ["mid", "stay_bound", "travel_bound"], rows)


def reference_local_consistency_check(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> LocalConsistencyResult:
    """Per-removal leave-one-out check: the reference for
    ``evaluate.local_consistency_check``.

    For each interior record: drop it, find the maximal dwell-certifying
    windows of the remainder, and call the record tested when some window
    strictly time-covers it. A tested record's immediate original neighbors
    should then both lie within the spatial threshold; count a violation
    when either does not.
    """
    x, y = planar(traj, ref_lat)
    dense = radii(params).dense
    s2 = dense * dense
    tested = 0
    violations = 0
    for i in range(1, len(traj) - 1):
        rest = Trajectory(
            device=traj.device,
            times=np.delete(traj.times, i),
            lons=np.delete(traj.lons, i),
            lats=np.delete(traj.lats, i),
        )
        t_i = traj.times[i]
        covered = any(
            rest.times[p] < t_i < rest.times[q]
            for p, q in dense_stay_windows(rest, params, ref_lat=ref_lat)
        )
        if not covered:
            continue
        tested += 1
        left2 = (x[i] - x[i - 1]) ** 2 + (y[i] - y[i - 1]) ** 2
        right2 = (x[i] - x[i + 1]) ** 2 + (y[i] - y[i + 1]) ** 2
        if left2 >= s2 or right2 >= s2:
            violations += 1
    return LocalConsistencyResult(tested=tested, violations=violations)


def reference_prop1(trajs: list[Trajectory], grid, *, ref_lat=None) -> str:
    """Device-by-device ``prop1``: one ``reference_local_consistency_check``
    per device and threshold pair, pooled per pair in grid order."""
    rows = []
    for params in grid:
        got = [reference_local_consistency_check(t, params, ref_lat=ref_lat) for t in trajs]
        pooled = LocalConsistencyResult(
            sum(r.tested for r in got), sum(r.violations for r in got)
        )
        rows.append(
            (params.delta_s, params.delta_t, pooled.tested, pooled.violations, pooled.rate)
        )
    return _csv_text("prop1", ["delta_s", "delta_t", "tested", "violations", "rate"], rows)


def windowed_local_consistency_check(
    traj: Trajectory,
    params: MobilityParams,
    *,
    ref_lat: float | None = None,
) -> LocalConsistencyResult:
    """The check of :func:`reference_local_consistency_check`, rebuilding per
    removed record i only the windows of the remainder near it: the
    reference for ``evaluate.local_consistency_check`` on thousands of
    dense records, where the other one rebuilds too much.

    Records within 2 * delta_t of i suffice. A window covering i holds
    i - 1 and i + 1. Grow [i - 1, i + 1] inside it one record at a time
    until it spans delta_t: every run of a window's records is pairwise
    close and gap-bounded, so the grown one is a window that covers i too.
    Each record grown adds a gap of at most delta_t to a span under
    delta_t, so it spans less than 2 * delta_t and lies within that of t_i.

    The trajectory is projected once, at ``ref_lat`` or its first record's
    latitude, and each slice keeps that plane: projected alone, a slice would
    lie in the plane of its own first record. In a slice, the longest window
    from record a ends just before the first record that follows a gap over
    delta_t or lies at the dense radius or more from a record at a or later.
    Removing i changes a record's first such far successor only where that
    was i, and then to its second.
    """
    x, y = planar(traj, ref_lat)
    t = traj.times
    n = len(t)
    d_t = params.delta_t
    dense = radii(params).dense
    s2 = dense * dense
    # each record's first two far successors in the whole trajectory, n if none
    succ = np.full((n, 2), n)
    for c in range(n):
        far = np.flatnonzero((x[c + 1 :] - x[c]) ** 2 + (y[c + 1 :] - y[c]) ** 2 >= s2)
        succ[c, : len(far[:2])] = far[:2] + c + 1
    tested = 0
    violations = 0
    for i in range(1, n - 1):
        lo = int(np.searchsorted(t, t[i] - 2 * d_t))
        hi = int(np.searchsorted(t, t[i] + 2 * d_t, side="right"))
        keep = np.r_[lo:i, i + 1 : hi]
        ts = t[keep]
        first, second = succ[keep].T
        far = np.minimum(np.where(first == i, second, first), hi)
        far -= lo + (far > i)  # its position in the slice, len(keep) if past it
        cuts = np.append(np.flatnonzero(np.diff(ts) > d_t) + 1, len(keep))
        gap = cuts[np.searchsorted(cuts, np.arange(len(keep)), side="right")]
        end = np.minimum.accumulate(np.minimum(far, gap)[::-1])[::-1] - 1
        # windows from the records before i
        end, ts_a = end[: i - lo], ts[: i - lo]
        if not ((ts[end] > t[i]) & (ts[end] - ts_a >= d_t)).any():
            continue
        tested += 1
        left2 = (x[i] - x[i - 1]) ** 2 + (y[i] - y[i - 1]) ** 2
        right2 = (x[i] - x[i + 1]) ** 2 + (y[i] - y[i + 1]) ** 2
        if left2 >= s2 or right2 >= s2:
            violations += 1
    return LocalConsistencyResult(tested=tested, violations=violations)


def sample_truncated_power_law(
    rng: np.random.Generator,
    exponent: float,
    lower: float,
    upper: float,
    size: int | None = None,
):
    """Draw from a power-law density ~ x^(-exponent) truncated to [lower, upper].

    Inverse-CDF transform; consumes exactly one uniform per draw.
    """
    transform = _power_law_transform(exponent, lower, upper)
    return transform(rng.random() if size is None else rng.random(size))


def reference_schedule(
    rng: np.random.Generator,
    count: int,
    *,
    gap_exponent: float = 1.6,
    gap_min: float = 60.0,
    gap_max: float = 21600.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The gaps of one draw of ``count`` uniforms, transformed as one array,
    and their floored running sums: the reference for
    ``simulate.synth_schedule``."""
    gaps = sample_truncated_power_law(rng, gap_exponent, gap_min, gap_max, size=count)
    return gaps, np.floor(np.cumsum(gaps)).astype(np.int64)


def reference_trajectory_counts(config: ExperimentConfig, index: int) -> np.ndarray:
    """Per-rate counts composed from the public calls, one rate at a time:
    the reference for ``evaluate._trajectory_counts``.

    Each rate resamples the trajectory, labels the subset with ``sds_label``
    and sums the twelve fields of ``RateOutcome`` one by one.
    """
    path, traj, truth = experiment_trajectory(config, index)
    ref = path.origin_lat
    params = config.params
    r = radii(params)
    stay_pool = stay_flags_at(traj, params, r.dense, ref_lat=ref)
    travel_pool = travel_flags_at(traj, params, r.travel_pool, ref_lat=ref) & (
        truth == LABEL_TRAVEL
    )
    eval_pool = stay_pool | travel_pool
    truth_stay = truth == LABEL_STAY
    truth_travel = truth == LABEL_TRAVEL
    n = len(traj)
    out = np.zeros((len(config.rates), 12), dtype=np.int64)
    for pos, rate in enumerate(config.rates):
        rng = np.random.default_rng((config.seed, index, pos))
        sub, keep = resample(traj, rate, rng)
        predicted = np.full(n, LABEL_UNLABELED, dtype=np.int8)
        predicted[keep] = sds_label(sub, params, ref_lat=ref).labels
        pred_stay = predicted == LABEL_STAY
        pred_travel = predicted == LABEL_TRAVEL
        gaps = np.diff(sub.times)
        out[pos] = (
            int(pred_stay.sum()),
            int((pred_stay & truth_stay).sum()),
            int(pred_travel.sum()),
            int((pred_travel & truth_travel).sum()),
            int((pred_stay & stay_pool).sum()),
            int(stay_pool.sum()),
            int((pred_travel & travel_pool).sum()),
            int(travel_pool.sum()),
            int(((predicted == truth) & eval_pool).sum()),
            int(eval_pool.sum()),
            int(gaps.sum()),
            int(gaps.size),
        )
    return out


def reference_continuous_labels(
    path: GroundTruthPath, times, params: MobilityParams
) -> np.ndarray:
    """Truth labels one timestamp at a time, reading period objects
    (:func:`periods_of`): the reference for ``simulate.continuous_labels``.
    Its input checks are left to the library."""
    t = np.asarray(times, dtype=np.float64)
    periods = periods_of(path)
    starts = [p.start for p in periods]
    idx = np.searchsorted(starts, t, side="right") - 1
    idx = np.clip(idx, 0, len(periods) - 1)
    labels = np.full(t.size, LABEL_TRAVEL, dtype=np.int8)
    exact: list[int] = []
    n_periods = len(periods)
    for k, (ti, pi) in enumerate(zip(t, idx)):
        period = periods[pi]
        if isinstance(period, StayPeriod):
            if period.duration >= params.delta_t:
                labels[k] = LABEL_STAY
            else:
                exact.append(k)
            continue
        nxt = periods[pi + 1] if pi + 1 < n_periods else None
        prv = periods[pi - 1] if pi > 0 else None
        closed_form = (
            isinstance(nxt, StayPeriod)
            and nxt.duration >= params.delta_t
            and isinstance(prv, StayPeriod)
            and prv.duration >= params.delta_t
            and period.length >= params.delta_s
            and period.speed * params.delta_t >= params.delta_s
        )
        if not closed_form:
            exact.append(k)
            continue
        frac = (ti - period.start) / period.duration
        px = period.x0 + frac * (period.x1 - period.x0)
        py = period.y0 + frac * (period.y1 - period.y0)
        near_prev = math.hypot(px - period.x0, py - period.y0) < params.delta_s
        near_next = math.hypot(px - period.x1, py - period.y1) < params.delta_s
        if near_prev or near_next:
            labels[k] = LABEL_STAY
    for k in exact:
        labels[k] = _search_label(path, float(t[k]), params)
    return labels


@dataclass(frozen=True)
class StayPeriod:
    """Dwell at a fixed planar point over [start, end] seconds."""

    start: float
    end: float
    x: float
    y: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TravelLeg:
    """Constant-speed straight move from (x0, y0) to (x1, y1) over [start, end]."""

    start: float
    end: float
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def length(self) -> float:
        return math.hypot(self.x1 - self.x0, self.y1 - self.y0)

    @property
    def speed(self) -> float:
        return self.length / self.duration


def periods_of(path: GroundTruthPath) -> tuple:
    """The path's periods as objects, rebuilt from its vertex arrays."""
    vt, vx, vy = (v.tolist() for v in (path.vertex_times, path.vertex_x, path.vertex_y))
    return tuple(
        StayPeriod(vt[k], vt[k + 1], vx[k], vy[k])
        if stay
        else TravelLeg(vt[k], vt[k + 1], vx[k], vy[k], vx[k + 1], vy[k + 1])
        for k, stay in enumerate(path.period_stay.tolist())
    )


def reference_ctrw_periods(config: CtrwConfig) -> tuple:
    """The walk as period objects, one scalar draw at a time: the reference
    for ``simulate.generate_ctrw``, which draws the same uniforms in blocks.

    Draw order: initial position (one size-2 uniform), then per cycle one
    dwell duration, one jump length, one jump direction. The final period is
    truncated at the horizon; legs are cut at the interpolated position.
    The inverse-CDF transform is written out here rather than taken from
    the library.
    """
    rng = np.random.default_rng(config.seed)

    def power_law(exponent, lower, upper):
        u = rng.random()
        if exponent == 1.0:
            return lower * (upper / lower) ** u
        k = 1.0 - exponent
        return (lower**k + u * (upper**k - lower**k)) ** (1.0 / k)

    x, y = rng.uniform(-config.start_span, config.start_span, 2)
    duration = float(config.duration)
    periods: list = []
    t = 0.0
    while t < duration:
        wait = power_law(config.wait_exponent, config.wait_min, config.wait_max)
        periods.append(StayPeriod(t, min(t + wait, duration), x, y))
        t += wait
        if t >= duration:
            break
        length = power_law(config.jump_exponent, config.jump_min, config.jump_max)
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        nx = x + length * math.cos(angle)
        ny = y + length * math.sin(angle)
        leg_seconds = length / config.speed
        if t + leg_seconds <= duration:
            periods.append(TravelLeg(t, t + leg_seconds, x, y, nx, ny))
        else:
            frac = (duration - t) / leg_seconds
            periods.append(
                TravelLeg(t, duration, x, y, x + frac * (nx - x), y + frac * (ny - y))
            )
        t += leg_seconds
        x, y = nx, ny
    return tuple(periods)


def reference_generate_ctrw(config: CtrwConfig) -> GroundTruthPath:
    """``simulate.generate_ctrw`` through :func:`reference_ctrw_periods`:
    each period adds its end vertex, at the dwell point or the leg's end."""
    periods = reference_ctrw_periods(config)
    vt, vx, vy = [0.0], [periods[0].x], [periods[0].y]
    for p in periods:
        stay = isinstance(p, StayPeriod)
        vt.append(p.end)
        vx.append(p.x if stay else p.x1)
        vy.append(p.y if stay else p.y1)
    return GroundTruthPath(
        vertex_times=np.array(vt),
        vertex_x=np.array(vx),
        vertex_y=np.array(vy),
        period_stay=np.array([isinstance(p, StayPeriod) for p in periods]),
        duration=float(config.duration),
        origin_lon=config.origin_lon,
        origin_lat=config.origin_lat,
    )


def axis_path(stops, dwell: float, speed: float = 10.0) -> GroundTruthPath:
    """A path that dwells ``dwell`` s at each planar point of ``stops`` and
    moves between them in straight legs at ``speed`` m/s."""
    stops = np.asarray(stops, dtype=np.float64).tolist()
    x, y = stops[0]
    vt, vx, vy, stay = [0.0], [x], [y], []
    t = 0.0
    for k, (nx, ny) in enumerate(stops):
        if k:
            t += math.hypot(nx - x, ny - y) / speed
            vt.append(t)
            vx.append(nx)
            vy.append(ny)
            stay.append(False)
        x, y = nx, ny
        t += dwell
        vt.append(t)
        vx.append(x)
        vy.append(y)
        stay.append(True)
    return GroundTruthPath(
        vertex_times=np.array(vt),
        vertex_x=np.array(vx),
        vertex_y=np.array(vy),
        period_stay=np.array(stay),
        duration=t,
        origin_lon=116.4,
        origin_lat=39.9,
    )
