"""Metrics, the resampling experiment, and consistency/sparsity diagnostics.

Scoring conventions used throughout:

* A prediction may abstain (unlabeled). Abstentions never count toward
  precision, always count against recall and accuracy.
* Precision and recall ratios with an empty denominator are reported as
  ``None`` rather than 0 or NaN; downstream formatting renders them as NA.
* The resampling experiment pools raw counts over trajectories first and
  forms ratios once at the end, so rare per-trajectory degeneracies (an
  empty subsample, say) cannot poison aggregate ratios.

The sampling statistics (:func:`spans`, :func:`mean_gaps`,
:func:`coverages`) and :func:`sparsity_report` take a file's devices as
``cli._ingest_columns`` gives them: every device's sorted times one after
another, and each one's record count. Each is a few whole-array steps over all
devices at once; none builds a per-device object. Nor does
:func:`local_consistency_check`, which takes them projected by
``core.project_runs``, as the experiment projects each batch.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    MobilityParams,
    project_runs,
    radii,
)
from .sds import (
    _block_boxes,
    _far_scan,
    _joined_codes,
    _joined_times,
    _recall_pools,
    _stay_heads,
)
from .simulate import (
    SCHEDULE_GAP_MIN,
    CtrwConfig,
    check_supports,
    continuous_labels,
    generate_ctrw,
    observe,
    synth_schedule,
)


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def harmonic_mean(a: float | None, b: float | None) -> float | None:
    """Harmonic mean with None propagation; (0, 0) maps to 0."""
    if a is None or b is None:
        return None
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class ConfusionCounts:
    """Record-level outcome tally for a stay/travel labeling.

    ``true_*``/``false_*`` follow the predicted class (false_stay is a stay
    prediction whose truth is travel); ``unlabeled_*`` follow the truth
    class of abstained records.
    """

    true_stay: int = 0
    false_stay: int = 0
    true_travel: int = 0
    false_travel: int = 0
    unlabeled_stay: int = 0
    unlabeled_travel: int = 0

    @property
    def total(self) -> int:
        return (
            self.true_stay
            + self.false_stay
            + self.true_travel
            + self.false_travel
            + self.unlabeled_stay
            + self.unlabeled_travel
        )

    @classmethod
    def from_labels(cls, truth: np.ndarray, predicted: np.ndarray) -> "ConfusionCounts":
        truth = np.asarray(truth)
        predicted = np.asarray(predicted)
        if truth.shape != predicted.shape:
            raise ValueError("truth and predicted must have the same length")
        truth_stay = truth == LABEL_STAY
        truth_travel = truth == LABEL_TRAVEL
        if not bool((truth_stay | truth_travel).all()):
            raise ValueError("truth labels must be stay or travel only")
        pred_stay = predicted == LABEL_STAY
        pred_travel = predicted == LABEL_TRAVEL
        pred_none = predicted == LABEL_UNLABELED
        return cls(
            true_stay=int((pred_stay & truth_stay).sum()),
            false_stay=int((pred_stay & truth_travel).sum()),
            true_travel=int((pred_travel & truth_travel).sum()),
            false_travel=int((pred_travel & truth_stay).sum()),
            unlabeled_stay=int((pred_none & truth_stay).sum()),
            unlabeled_travel=int((pred_none & truth_travel).sum()),
        )


@dataclass(frozen=True)
class MetricsReport:
    """Precision/recall per class plus accuracy, None where undefined."""

    stay_precision: float | None
    stay_recall: float | None
    travel_precision: float | None
    travel_recall: float | None
    accuracy: float | None

    @classmethod
    def from_counts(cls, c: ConfusionCounts) -> "MetricsReport":
        return cls(
            stay_precision=_ratio(c.true_stay, c.true_stay + c.false_stay),
            stay_recall=_ratio(
                c.true_stay, c.true_stay + c.false_travel + c.unlabeled_stay
            ),
            travel_precision=_ratio(c.true_travel, c.true_travel + c.false_travel),
            travel_recall=_ratio(
                c.true_travel, c.true_travel + c.false_stay + c.unlabeled_travel
            ),
            accuracy=_ratio(c.true_stay + c.true_travel, c.total),
        )

    @property
    def f1_accuracy(self) -> float | None:
        """Harmonic mean of the two per-class F1 scores."""
        return harmonic_mean(
            harmonic_mean(self.stay_precision, self.stay_recall),
            harmonic_mean(self.travel_precision, self.travel_recall),
        )


def compute_metrics(predicted: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Score predicted label codes against truth codes over every record;
    to score a subset of records, index both arrays first."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("predicted and truth must have the same length")
    return MetricsReport.from_counts(ConfusionCounts.from_labels(truth, predicted))


DEFAULT_RATES = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for the synthetic resampling experiment.

    One trajectory per index: a ground-truth walk, an observation schedule
    with power-law gaps, then one labeling run per retention rate. All
    randomness derives from ``seed`` and the trajectory index, so results
    are reproducible for any worker count.
    """

    params: MobilityParams = field(default_factory=MobilityParams)
    walk: CtrwConfig = field(default_factory=CtrwConfig)
    trajectories: int = 100
    rates: tuple[float, ...] = DEFAULT_RATES
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trajectories < 0:
            raise ValueError("trajectories must be >= 0")
        if not self.rates:
            raise ValueError("need at least one rate")
        for r in self.rates:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"rate {r} outside [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # a batch joins its (rate, trajectory) subsets in time, one after
        # another; sds._joined_times starts a new run where the joined
        # times would reach 2**63, and this bound keeps the subsets of one
        # trajectory alone within one run
        if len(self.rates) * (self.walk.duration + self.params.delta_t + 1) >= 2**63:
            raise ValueError(
                f"{len(self.rates)} rates x (duration + delta_t + 1) s reaches "
                "2**63: joined times would overflow"
            )


@dataclass(frozen=True)
class RateOutcome:
    """Pooled counts for one retention rate, with derived ratios.

    Precision counts range over every record of every full trajectory;
    dropped records predict nothing and so cannot enter them. Recall counts
    are taken against rate-independent recoverable pools fixed on the full
    trajectories: records certifiably in a dwell cluster for the stay side,
    truth-travel records with spatial evidence for the travel side.
    Accuracy ranges over the union of the two pools, with abstained or
    dropped records counted as wrong.
    """

    rate: float
    stay_predicted: int
    stay_correct: int
    travel_predicted: int
    travel_correct: int
    stay_recovered: int
    stay_recoverable: int
    travel_recovered: int
    travel_recoverable: int
    accurate: int
    evaluable: int
    gap_seconds: int
    gap_count: int

    @property
    def mean_gap(self) -> float | None:
        """Pooled global sparsity of the subsampled data at this rate."""
        return _ratio(self.gap_seconds, self.gap_count)

    @property
    def stay_precision(self) -> float | None:
        return _ratio(self.stay_correct, self.stay_predicted)

    @property
    def travel_precision(self) -> float | None:
        return _ratio(self.travel_correct, self.travel_predicted)

    @property
    def stay_recall(self) -> float | None:
        return _ratio(self.stay_recovered, self.stay_recoverable)

    @property
    def travel_recall(self) -> float | None:
        return _ratio(self.travel_recovered, self.travel_recoverable)

    @property
    def accuracy(self) -> float | None:
        return _ratio(self.accurate, self.evaluable)

    @property
    def f1_accuracy(self) -> float | None:
        return harmonic_mean(
            harmonic_mean(self.stay_precision, self.stay_recall),
            harmonic_mean(self.travel_precision, self.travel_recall),
        )


_COUNT_FIELDS = 12

#: full-rate records in one batch of the experiment's trajectories: the
#: batch's labeling call holds up to this many times the rate count, and
#: the kernel's whole-array steps a few arrays of that length, so the budget
#: bounds the memory a batch takes whatever the walk's duration
BATCH_RECORDS = 2500

# One rate's histogram cells: predicted code p (U, S, T), truth travel tt (the
# truth code is S + tt), in the stay pool sp, in the travel pool tp. Column k
# marks the cells that count field k of RateOutcome sums, for the ten fields
# before the gap fields. Built in plain Python: numpy calls at import page in
# code that adds about 0.4 MB to every process's resident set.
_CELLS = 24
_CELL_WEIGHTS = np.array(
    [
        [
            p == LABEL_STAY,
            p == LABEL_STAY and not tt,
            p == LABEL_TRAVEL,
            p == LABEL_TRAVEL and tt,
            p == LABEL_STAY and sp,
            sp,
            p == LABEL_TRAVEL and tp,
            tp,
            p == LABEL_STAY + tt and (sp or tp),
            sp or tp,
        ]
        for p, tt, sp, tp in itertools.product(range(3), range(2), range(2), range(2))
    ],
    dtype=np.int64,
)


def experiment_trajectory(
    config: ExperimentConfig, index: int, *, with_truth: bool = True
):
    """One synthetic trajectory of the experiment, with its path and truth.

    Single generator seeded by (seed, index) drives the walk seed, the
    schedule, and observation jitter, in that order, so trajectory ``index``
    is identical no matter which other indices are generated or in what
    order. The schedule takes the uniforms of ceil(duration /
    SCHEDULE_GAP_MIN) gaps, enough to reach the horizon at the shortest
    gap: it transforms only those that reach it and skips the rest
    (``synth_schedule``'s ``horizon``), so the jitter draws start where
    they would after the full draw. Returns (path, trajectory, truth labels
    or None).
    """
    base = np.random.default_rng((config.seed, index))
    walk = replace(config.walk, seed=int(base.integers(0, 2**62)))
    path = generate_ctrw(walk)
    # enough minimum-length gaps to cover the horizon, drawn up to it
    count = int(math.ceil(walk.duration / SCHEDULE_GAP_MIN))
    times = synth_schedule(base, count, horizon=walk.duration)
    traj = observe(
        path,
        times,
        device=f"sim{index:05d}",
        jitter_radius=walk.jitter_radius,
        rng=base,
    )
    truth = continuous_labels(path, times, config.params) if with_truth else None
    return path, traj, truth


def _trajectory_counts(config: ExperimentConfig, indices: range) -> np.ndarray:
    """Per-rate raw counts summed over the contiguous range ``indices`` of
    trajectories.

    Each trajectory's lons and lats join a batch, which ``_batch_counts``
    projects at the walk's origin latitude, every path's ``origin_lat``:
    the plane the simulator decides the truth labels in, not the one
    ``label`` takes by default (the first record's latitude). In one plane,
    labeler and truth agree on every tie at delta_s, so the counts score
    the labeler, not the gap between two planes, which the truth does not
    yet bound. A batch is counted and emptied before the next trajectory
    would take it past BATCH_RECORDS full-rate records, so a longer
    ``duration`` makes more batches, not larger ones; a trajectory longer
    than that is a batch of its own. Counts are integer sums, so every
    batching gives the same totals.
    """
    total = np.zeros((len(config.rates), _COUNT_FIELDS), dtype=np.int64)
    batch = []
    held = 0
    for index in indices:
        _, traj, truth = experiment_trajectory(config, index)
        if batch and held + len(traj) > BATCH_RECORDS:
            total += _batch_counts(config, batch)
            batch, held = [], 0
        batch.append((index, traj.lons, traj.lats, traj.times, truth == LABEL_TRAVEL))
        held += len(traj)
    if batch:
        total += _batch_counts(config, batch)
    return total


def _batch_counts(config: ExperimentConfig, batch: list) -> np.ndarray:
    """Per-rate raw counts of a batch of trajectories, each given as (index,
    lons, lats, times, truth travel mask).

    One ``core.project_runs`` call projects the batch, each trajectory
    about its own first longitude, at the walk's origin latitude.
    ``sds._recall_pools`` fixes every trajectory's recall pools in one kernel
    call per radius pair. One ``sds._joined_codes`` call labels every kept
    subset, rate after rate and within a rate trajectory after trajectory:
    the subsets are joined in time, each shifted more than delta_t past the
    one before, and the kernel labels across such a gap as it labels
    separate trajectories. The count fields come from one histogram over
    (rate, predicted code, truth class, stay pool, travel pool), the gap
    fields from each subset's first and last time. The keep masks are drawn
    by ``simulate.resample``'s rule, one uniform per record below the rate,
    as the ``resample`` command draws them, with no generator built at rates
    0.0 and 1.0, whose masks need none.
    """
    indices, lons, lats, ts, travels = zip(*batch)
    lengths = [len(v) for v in ts]
    lat0 = config.walk.origin_lat
    x, y = project_runs(np.concatenate(lons), np.concatenate(lats), lengths, lat0)
    t = np.concatenate(ts)
    truth_travel = np.concatenate(travels)
    stay_pool, travel_pool = _recall_pools(x, y, t, lengths, config.params)
    travel_pool &= truth_travel

    rates = len(config.rates)
    # simulate.resample's rule: one uniform per record from a
    # generator seeded by (seed, index, rate position), so rates stay
    # independent of each other and of the trajectory draws. A uniform is
    # always below 1.0 and never below 0.0, so those two rates keep all or
    # nothing without building their generators: no other stream moves.
    keep = np.empty((rates, len(t)), dtype=bool)
    for k, rate in enumerate(config.rates):
        if rate in (0.0, 1.0):
            keep[k] = rate == 1.0
            continue
        draws = [
            np.random.default_rng((config.seed, index, k)).random(n)
            for index, n in zip(indices, lengths)
        ]
        keep[k] = np.concatenate(draws) < rate
    row, col = np.nonzero(keep)
    # kept records per (rate, trajectory), the order nonzero lists them in,
    # as differences of running counts: a trajectory may have no records
    running = np.zeros((rates, len(t) + 1), dtype=np.int64)
    np.cumsum(keep, axis=1, out=running[:, 1:])
    sizes = np.diff(running[:, np.cumsum([0] + lengths)], axis=1).ravel()
    kept = t[col]
    predicted = np.zeros((rates, len(t)), dtype=np.int64)
    predicted[row, col] = _joined_codes(x[col], y[col], kept, sizes, config.params)
    cell = ((predicted * 2 + truth_travel) * 2 + stay_pool) * 2 + travel_pool
    cell += np.arange(rates)[:, None] * _CELLS
    hist = np.bincount(cell.ravel(), minlength=rates * _CELLS).reshape(rates, _CELLS)
    some = sizes > 0
    span = np.zeros(len(sizes), dtype=np.int64)
    span[some] = spans(kept, sizes[some])
    span = span.reshape(rates, -1).sum(axis=1)
    gaps = np.maximum(sizes - 1, 0).reshape(rates, -1).sum(axis=1)
    return np.column_stack((hist @ _CELL_WEIGHTS, span, gaps))


def resampling_experiment(config: ExperimentConfig) -> list[RateOutcome]:
    """Run the experiment and return one pooled outcome per retention rate.

    With several workers, each counts one contiguous range of about
    ``trajectories / workers`` trajectories.

    Raises ValueError, before any trajectory is built, for walk settings
    whose truth labels cannot be exact (see ``simulate.check_supports``).
    """
    check_supports(config.walk, config.params)
    n = config.trajectories
    workers = min(config.workers, n)
    if workers > 1:
        import multiprocessing
        from functools import partial

        cuts = [n * k // workers for k in range(workers + 1)]
        ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.map(partial(_trajectory_counts, config), ranges)
        total = np.sum(parts, axis=0)
    else:
        total = _trajectory_counts(config, range(n))
    return [
        RateOutcome(rate, *(int(v) for v in total[pos]))
        for pos, rate in enumerate(config.rates)
    ]


@dataclass(frozen=True)
class LocalConsistencyResult:
    """Leave-one-out bracket check tally."""

    tested: int
    violations: int

    @property
    def rate(self) -> float:
        return self.violations / self.tested if self.tested else 0.0


def local_consistency_check(
    x: np.ndarray, y: np.ndarray, t: np.ndarray, sizes, params: MobilityParams
) -> LocalConsistencyResult:
    """Leave-one-out test of dwell-cluster locality, pooled over consecutive
    trajectories in planar coordinates (as ``core.project_runs`` gives
    them), each as if checked alone.

    For each interior record: drop it, and call the record tested when some
    dense dwell window of the remainder (every pair closer than the
    ``dense`` radius of ``core.radii``, delta_s; every gap <= delta_t;
    spanning delta_t; see :mod:`sparsemob.oracle`) strictly time-covers it.
    A tested record's immediate original neighbors should then both lie
    within that radius; count a violation when either does not.

    The trajectories are joined in time as the labeler joins them
    (``sds._joined_times``); no window or neighbor pair spans a gap between
    two, so ``_leave_one_out`` checks each run of them in one pass.
    ``sparsemob prop1`` calls it once per distinct threshold pair on a
    whole file; one Trajectory is ``local_consistency_check(*planar(traj,
    ref_lat), traj.times, [len(traj)], params)``.
    """
    joined, cuts = _joined_times(t, sizes, params.delta_t)
    runs = [_leave_one_out(x[a:b], y[a:b], joined[a:b], params) for a, b in zip(cuts, cuts[1:])]
    return LocalConsistencyResult(sum(r[0] for r in runs), sum(r[1] for r in runs))


def _leave_one_out(x, y, t, params: MobilityParams) -> tuple[int, int]:
    """The tested records and violations of ``local_consistency_check`` in
    one run of records, in planar coordinates, with int64 times.

    The stay pass gives each record its window head at the dense radius
    (``sds._stay_heads``). A window covering removed record i holds i-1 and
    i+1, so it is [p, i-1] + [i+1, c] for some c. The search starts at p =
    heads[i-1] and grows c from i+1 until the window breaks (p passes i-1,
    or a gap over delta_t comes) or spans delta_t. Each new c moves p past
    the nearest record before c at that radius or more from it:
    * a record whose head is p or earlier moves p nowhere, so a stretch of
      them joins in one bisection of the heads;
    * otherwise that record is heads[c] - 1 when it lies in the window of
      c - 1, which starts at h = heads[c - 1]; when it does not, _far_scan
      looks for it backward from h - 1 down to p, both included;
    * the removed record is no member, so where it is the record found the
      search looks again before it, from i - 1 down to p.
    A removal costs a step for each record up to delta_t past it whose head
    moves past p; in a dwell the heads stay put and it takes a few.
    """
    n = len(t)
    # the loop reads every record's time and head, so lists, which cost it
    # less per read than memoryviews of the arrays
    xs, ys, ts = x.tolist(), y.tolist(), t.tolist()
    boxes = _block_boxes(x, y)
    delta_t = params.delta_t
    dense = radii(params).dense
    r2 = dense * dense
    heads = _stay_heads(x, y, t, xs, ys, boxes, dense, delta_t).tolist()
    tested = violations = 0
    for i in range(1, n - 1):
        a = i - 1
        if ts[i + 1] - ts[a] > delta_t:
            continue
        p = heads[a]
        c = i + 1
        covered = False
        while True:
            # records c..e-1 have heads at or before p: none is far from a
            # member of the window, or follows a gap over delta_t
            e = bisect_right(heads, p, c)
            if e > c and ts[e - 1] - ts[p] >= delta_t:
                covered = True
                break
            c = e
            if c == n or ts[c] - ts[c - 1] > delta_t:
                break
            h = heads[c - 1]
            u = heads[c] - 1  # the nearest far record in [h, c - 1], if >= h
            if u < h and h > p:
                u = _far_scan(xs, ys, boxes, xs[c], ys[c], r2, h - 1, p, -1)
            if u == i:  # gone; look before it
                u = _far_scan(xs, ys, boxes, xs[c], ys[c], r2, a, p, -1)
            if u >= p:
                p = u + 1
                if p > a:
                    break
            if ts[c] - ts[p] >= delta_t:
                covered = True
                break
            c += 1
        if not covered:
            continue
        tested += 1
        lx = xs[i] - xs[a]
        ly = ys[i] - ys[a]
        rx = xs[i] - xs[i + 1]
        ry = ys[i] - ys[i + 1]
        if lx * lx + ly * ly >= r2 or rx * rx + ry * ry >= r2:
            violations += 1
    return tested, violations


def spans(times: np.ndarray, sizes) -> np.ndarray:
    """Each device's last time less its first, 0 for a lone record, for
    devices whose sorted times lie one after another in ``times``, with
    ``sizes`` records each (every size at least 1)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    return times[ends - 1] - times[ends - sizes]


def mean_gaps(times: np.ndarray, sizes) -> np.ndarray:
    """Each device's global sparsity: its mean consecutive time gap in
    seconds, laid out as in :func:`spans`, NaN for a lone record, which
    has no gap.

    The mean is the span over the gap count, which is the mean of the gaps
    as long as the span is below 2**53 s; above it, one rounding of the
    span instead of one per gap and per partial sum.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # a lone record's 0 / 0
        return spans(times, sizes) / (sizes - 1)


def coverages(times: np.ndarray, sizes, delta_t: float) -> np.ndarray:
    """Each device's fraction of records that are not temporally isolated,
    laid out as in :func:`spans`.

    A record is isolated when both of its adjacent gaps exceed ``delta_t``.
    A device's first and last records have only one adjacent gap and are
    never isolated, so devices with fewer than three records score 1.0.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    wide = np.diff(times) > delta_t
    wide[np.cumsum(sizes)[:-1] - 1] = False  # from one device to the next
    isolated = np.zeros(len(times), dtype=bool)
    isolated[1:-1] = wide[:-1] & wide[1:]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return (sizes - np.bincount(owner[isolated], minlength=len(sizes))) / sizes


#: fixed log-spaced gap bins, comparable across datasets; the first and last
#: absorb sub-10 s and super-11.6-day gaps
GAP_BIN_EDGES = np.concatenate(([0.0], np.logspace(1.0, 6.0, 21), [np.inf]))

COVERAGE_BIN_EDGES = np.linspace(0.0, 1.0, 11)


@dataclass(frozen=True, eq=False)
class SparsityReport:
    """Dataset-level sampling and label-mix distributions.

    Devices are bucketed by mean gap on the fixed log bins; per bucket the
    report carries the device count, mean trajectory length, and the pooled
    stay/travel/unlabeled record fractions under the given thresholds (NaN
    where a bucket is empty). Coverage histograms count devices by their
    non-isolated-record fraction, one histogram per slicing threshold.
    """

    xi_edges: np.ndarray
    device_counts: np.ndarray
    mean_records: np.ndarray
    stay_fraction: np.ndarray
    travel_fraction: np.ndarray
    unlabeled_fraction: np.ndarray
    coverage_edges: np.ndarray
    coverage_counts: dict[float, np.ndarray]


def sparsity_report(
    times: np.ndarray, sizes, codes: np.ndarray, delta_ts: list[float]
) -> SparsityReport:
    """Build the sparsity/label-mix report of devices laid out as in
    :func:`spans`, ``codes`` holding their records' label codes, with one
    coverage histogram per distinct threshold of ``delta_ts``. Single-record
    devices only enter the coverage histograms (their mean gap is
    undefined)."""
    if not len(sizes):
        raise ValueError("empty dataset")
    sizes = np.asarray(sizes, dtype=np.int64)
    n_bins = len(GAP_BIN_EDGES) - 1
    gaps = mean_gaps(times, sizes)
    some = sizes > 1
    bins = np.searchsorted(GAP_BIN_EDGES, gaps[some], side="right") - 1
    bins = np.clip(bins, 0, n_bins - 1)
    device_counts = np.bincount(bins, minlength=n_bins)
    record_sums = np.bincount(bins, weights=sizes[some], minlength=n_bins)
    # each record of a binned device counted in its (bin, code) cell
    cells = np.repeat(bins, sizes[some]) * 3 + codes[np.repeat(some, sizes)]
    label_sums = np.bincount(cells, minlength=n_bins * 3).reshape(n_bins, 3)
    label_sums = label_sums[:, [LABEL_STAY, LABEL_TRAVEL, LABEL_UNLABELED]]
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_records = record_sums / np.where(device_counts, device_counts, np.nan)
        totals = label_sums.sum(axis=1)
        fractions = label_sums / np.where(totals, totals, np.nan)[:, None]
    # np.histogram's last bin is closed, so full coverage lands in it
    coverage_counts = {
        dt: np.histogram(coverages(times, sizes, dt), bins=COVERAGE_BIN_EDGES)[0]
        for dt in dict.fromkeys(delta_ts)
    }
    return SparsityReport(
        xi_edges=GAP_BIN_EDGES.copy(),
        device_counts=device_counts,
        mean_records=mean_records,
        stay_fraction=fractions[:, 0],
        travel_fraction=fractions[:, 1],
        unlabeled_fraction=fractions[:, 2],
        coverage_edges=COVERAGE_BIN_EDGES.copy(),
        coverage_counts=coverage_counts,
    )
