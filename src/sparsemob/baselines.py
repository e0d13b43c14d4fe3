"""Multi-trajectory baseline labelers: bin voting and a two-state HMM.

Both baselines learn across devices from already-labeled records and then
label every record of a query trajectory (they never abstain).

* Voting keys each record by a spatiotemporal bin (milli-degree grid cell
  plus hour-of-week) and predicts the majority training label of the bin.
  Ties and unseen bins fall back to a coin keyed by hashing the bin with the
  model seed, so predictions are reproducible and independent of training
  record order.
* The HMM treats the per-record offset from the previous record (distance
  bucket x time-gap bucket) as the observation symbol and decodes the
  stay/travel state sequence with Viterbi in log space.

Training and prediction run on consecutive trajectories' columns, as
``sparsemob.cli`` reads a file; the functions that take trajectories join
them into such columns first.

This module does no I/O: ``sparsemob.cli`` reads and writes model files,
with every other file layout.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TZ_OFFSET,
    LABEL_STAY,
    LABEL_TRAVEL,
    LABEL_UNLABELED,
    Trajectory,
    project_runs,
)

HOURS_PER_WEEK = 168

#: days from Unix epoch day (a Thursday) to the start of the index week
_WEEK_ANCHOR = {"monday": 3, "sunday": 4}


def grid_index(lon: float, lat: float) -> tuple[int, int]:
    """Milli-degree grid cell of a point: (floor(lon*1000), floor(lat*1000)).

    Floor, not truncation: small negative coordinates land in cell -1.
    """
    return math.floor(lon * 1000.0), math.floor(lat * 1000.0)


def hour_index(
    time: int, *, week_start: str = "monday", tz_offset: int = DEFAULT_TZ_OFFSET
) -> int:
    """Hour-of-week in [0, 168): hour of day plus 24 times day of week.

    Day numbering starts at ``week_start`` (monday or sunday); hours are
    taken in the fixed-offset timezone given by ``tz_offset`` seconds.
    """
    try:
        anchor = _WEEK_ANCHOR[week_start]
    except KeyError:
        raise ValueError(f"week_start must be one of {sorted(_WEEK_ANCHOR)}") from None
    day, remainder = divmod(int(time) + tz_offset, 86400)
    weekday = (day + anchor) % 7
    return int(weekday * 24 + remainder // 3600)


@dataclass(frozen=True)
class SpatioTemporalBin:
    """Voting key: one grid cell during one hour of the week."""

    grid_lon: int
    grid_lat: int
    hour: int

    def __post_init__(self) -> None:
        if not 0 <= self.hour < HOURS_PER_WEEK:
            raise ValueError(f"hour index {self.hour} outside [0, {HOURS_PER_WEEK})")


def spatiotemporal_bin(
    lon: float,
    lat: float,
    time: int,
    *,
    week_start: str = "monday",
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> SpatioTemporalBin:
    glon, glat = grid_index(lon, lat)
    return SpatioTemporalBin(
        grid_lon=glon,
        grid_lat=glat,
        hour=hour_index(time, week_start=week_start, tz_offset=tz_offset),
    )


@dataclass
class VotingModel:
    """Per-bin stay/travel vote counts plus the deterministic fallback.

    The fallback coin hashes (seed, bin) rather than drawing from a
    generator so that predictions cannot depend on how many other records
    were trained or queried first.
    """

    seed: int = 0
    week_start: str = "monday"
    tz_offset: int = DEFAULT_TZ_OFFSET
    counts: dict[SpatioTemporalBin, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.week_start not in _WEEK_ANCHOR:
            raise ValueError(f"week_start must be one of {sorted(_WEEK_ANCHOR)}")

    def add(self, bin_: SpatioTemporalBin, label: int) -> None:
        stay, travel = self.counts.get(bin_, (0, 0))
        if label == LABEL_STAY:
            stay += 1
        elif label == LABEL_TRAVEL:
            travel += 1
        else:
            raise ValueError("voting training labels must be stay or travel")
        self.counts[bin_] = (stay, travel)

    def _coin(self, bin_: SpatioTemporalBin) -> int:
        key = f"{self.seed}:{bin_.grid_lon}:{bin_.grid_lat}:{bin_.hour}"
        digest = hashlib.sha256(key.encode("ascii")).digest()
        return LABEL_STAY if digest[0] & 1 == 0 else LABEL_TRAVEL

    def predict_bin(self, bin_: SpatioTemporalBin) -> int:
        stay, travel = self.counts.get(bin_, (0, 0))
        if stay > travel:
            return LABEL_STAY
        if travel > stay:
            return LABEL_TRAVEL
        return self._coin(bin_)

    def predict_record(self, lon: float, lat: float, time: int) -> int:
        return self.predict_bin(
            spatiotemporal_bin(
                lon, lat, time, week_start=self.week_start, tz_offset=self.tz_offset
            )
        )

    def predict(self, traj: Trajectory) -> np.ndarray:
        return self._predict(traj.lons, traj.lats, traj.times)

    def _predict(self, lons, lats, times) -> np.ndarray:
        """The label of each record of the columns: no trajectory needed."""
        labels = map(self.predict_record, lons.tolist(), lats.tolist(), times.tolist())
        return np.fromiter(labels, dtype=np.int8, count=len(times))


def _columns(pairs):
    """(trajectory, labels) pairs as columns: lons, lats, times, each
    trajectory's record count and the labels, trajectory after trajectory."""
    pairs = list(pairs)
    if any(len(np.asarray(labels)) != len(traj) for traj, labels in pairs):
        raise ValueError("labels must align with trajectory records")
    trajs = [traj for traj, _ in pairs]
    return (
        np.concatenate([np.zeros(0), *(traj.lons for traj in trajs)]),
        np.concatenate([np.zeros(0), *(traj.lats for traj in trajs)]),
        np.concatenate([np.zeros(0, np.int64), *(traj.times for traj in trajs)]),
        [len(traj) for traj in trajs],
        np.concatenate([np.zeros(0, np.int64), *(np.asarray(l) for _, l in pairs)]),
    )


def voting_train(
    pairs,
    *,
    seed: int = 0,
    week_start: str = "monday",
    tz_offset: int = DEFAULT_TZ_OFFSET,
) -> VotingModel:
    """Accumulate bin votes from (trajectory, labels) pairs.

    Unlabeled positions contribute nothing. Accumulation is commutative, so
    any training order yields the same model.
    """
    lons, lats, times, _, labels = _columns(pairs)
    return _vote(lons, lats, times, labels, seed=seed, week_start=week_start,
                 tz_offset=tz_offset)


def _vote(lons, lats, times, labels, *, seed, week_start, tz_offset) -> VotingModel:
    """``voting_train`` over records as columns: the bins need no
    trajectory, so neither does training."""
    model = VotingModel(seed=seed, week_start=week_start, tz_offset=tz_offset)
    rows = zip(lons.tolist(), lats.tolist(), times.tolist(), labels.tolist())
    for lon, lat, time, code in rows:
        if code != LABEL_UNLABELED:
            model.add(
                spatiotemporal_bin(lon, lat, time, week_start=week_start,
                                   tz_offset=tz_offset),
                code,
            )
    return model


@dataclass(frozen=True)
class BucketConfig:
    """Offset discretization for the HMM observation alphabet.

    Distance edges split [0, inf) into len+1 buckets (value equal to an
    edge rounds up); gap edges likewise but rounding down, matching
    "at most five minutes" style bucket wording. Symbol 0 is reserved for
    the first record of a trajectory, which has no predecessor offset.
    """

    distance_edges: tuple[float, ...] = (100.0, 400.0, 800.0, 3200.0)
    gap_edges: tuple[float, ...] = (300.0, 1800.0)

    def __post_init__(self) -> None:
        for edges in (self.distance_edges, self.gap_edges):
            if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
                raise ValueError("bucket edges must be non-empty and increasing")

    @property
    def n_symbols(self) -> int:
        return 1 + (len(self.distance_edges) + 1) * (len(self.gap_edges) + 1)

    def symbol(self, distance, gap):
        """Symbol of an offset, or int64 symbols of arrays of offsets."""
        d = np.searchsorted(self.distance_edges, distance, side="right")
        g = np.searchsorted(self.gap_edges, gap, side="left")
        return 1 + d * (len(self.gap_edges) + 1) + g


def observations(
    traj: Trajectory, buckets: BucketConfig, *, ref_lat: float | None = None
) -> np.ndarray:
    """Observation symbol per record: 0 for the first, offset bucket after."""
    return _symbols(traj.lons, traj.lats, traj.times, [len(traj)], buckets, ref_lat)


def _symbols(lons, lats, times, sizes, buckets: BucketConfig, ref_lat) -> np.ndarray:
    """``observations`` of consecutive trajectories: one projection and one
    ``diff`` over all their records, then 0 at each one's first record."""
    x, y = project_runs(lons, lats, sizes, ref_lat)
    out = np.zeros(len(times), dtype=np.int64)
    dist = np.hypot(np.diff(x), np.diff(y))
    out[1:] = buckets.symbol(dist, np.diff(times).astype(np.float64))
    sizes = np.asarray(sizes, dtype=np.int64)
    out[(np.cumsum(sizes) - sizes)[sizes > 0]] = 0
    return out


STATE_LABELS = (LABEL_STAY, LABEL_TRAVEL)  # state 0 is stay, state 1 travel


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Two-state model over stay/travel with bucketed offset emissions."""

    initial: np.ndarray  # (2,)
    transition: np.ndarray  # (2, 2), rows sum to 1
    emission: np.ndarray  # (2, n_symbols), rows sum to 1
    buckets: BucketConfig

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=np.float64)
        transition = np.asarray(self.transition, dtype=np.float64)
        emission = np.asarray(self.emission, dtype=np.float64)
        if initial.shape != (2,) or transition.shape != (2, 2):
            raise ValueError("expected a two-state model")
        if emission.shape != (2, self.buckets.n_symbols):
            raise ValueError("emission table does not match the bucket alphabet")
        for name, table in (
            ("initial", initial[None, :]),
            ("transition", transition),
            ("emission", emission),
        ):
            if (table < 0).any():
                raise ValueError(f"{name} probabilities must be non-negative")
            if not np.allclose(table.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
                raise ValueError(f"{name} rows must sum to 1 within 1e-9")
        for name, arr in (
            ("initial", initial),
            ("transition", transition),
            ("emission", emission),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def hmm_train(
    pairs,
    buckets: BucketConfig | None = None,
    *,
    ref_lat: float | None = None,
) -> HmmModel:
    """Count-and-smooth training from (trajectory, labels) pairs.

    Initial counts take each trajectory's first record when labeled;
    transition counts take consecutive record pairs labeled on both ends
    (a gap in labeling contributes nothing, it is not bridged); emission
    counts take every labeled record's own symbol. All three tables get
    add-one smoothing, so no probability is ever zero.
    """
    return _hmm_fit(*_columns(pairs), buckets, ref_lat)


def _hmm_fit(lons, lats, times, sizes, labels, buckets=None, ref_lat=None) -> HmmModel:
    """``hmm_train`` over consecutive trajectories as columns, ``sizes``
    their record counts: each count is one ``bincount`` over all records."""
    if buckets is None:
        buckets = BucketConfig()
    if not len(sizes):
        raise ValueError("empty training set")
    n_symbols = buckets.n_symbols
    syms = _symbols(lons, lats, times, sizes, buckets, ref_lat)
    # state 0 for stay, 1 for travel, -1 for a record without either label
    states = np.where(labels == LABEL_STAY, 0, np.where(labels == LABEL_TRAVEL, 1, -1))
    labeled = states >= 0
    sizes = np.asarray(sizes, dtype=np.int64)
    heads = (np.cumsum(sizes) - sizes)[sizes > 0]
    # consecutive records of one trajectory, both labeled
    pair = labeled[:-1] & labeled[1:]
    pair[heads[heads > 0] - 1] = False
    init_counts = np.bincount(states[heads][labeled[heads]], minlength=2)
    trans_counts = np.bincount(
        states[:-1][pair] * 2 + states[1:][pair], minlength=4
    ).reshape(2, 2)
    emit_counts = np.bincount(
        states[labeled] * n_symbols + syms[labeled], minlength=2 * n_symbols
    ).reshape(2, n_symbols)
    initial = (init_counts + 1) / (init_counts.sum() + 2)
    transition = (trans_counts + 1) / (trans_counts.sum(axis=1, keepdims=True) + 2)
    emission = (emit_counts + 1) / (
        emit_counts.sum(axis=1, keepdims=True) + buckets.n_symbols
    )
    return HmmModel(
        initial=initial, transition=transition, emission=emission, buckets=buckets
    )


def viterbi(
    initial: np.ndarray,
    transition: np.ndarray,
    emission: np.ndarray,
    symbols: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Most probable state path in log space.

    Scores fold left to right as ((prev + log-transition) + log-emission),
    and the per-step max scans states in ascending order keeping strictly
    better candidates only, so equal scores resolve to the lower state
    index. An enumeration that folds path scores the same way reproduces
    the returned log-probability bit for bit.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    n = symbols.size
    if n == 0:
        raise ValueError("cannot decode an empty symbol sequence")
    n_states = len(initial)
    with np.errstate(divide="ignore"):
        li = np.log(np.asarray(initial, dtype=np.float64))
        lt = np.log(np.asarray(transition, dtype=np.float64))
        le = np.log(np.asarray(emission, dtype=np.float64))
    score = np.array([li[s] + le[s, symbols[0]] for s in range(n_states)])
    back = np.zeros((n, n_states), dtype=np.int64)
    for k in range(1, n):
        nxt = np.empty(n_states)
        for j in range(n_states):
            best_i = 0
            best = score[0] + lt[0, j]
            for i in range(1, n_states):
                cand = score[i] + lt[i, j]
                if cand > best:
                    best = cand
                    best_i = i
            back[k, j] = best_i
            nxt[j] = best + le[j, symbols[k]]
        score = nxt
    last = 0
    for s in range(1, n_states):
        if score[s] > score[last]:
            last = s
    states = np.empty(n, dtype=np.int64)
    states[-1] = last
    for k in range(n - 1, 0, -1):
        states[k - 1] = back[k, states[k]]
    return states, float(score[last])


def hmm_predict(
    model: HmmModel, traj: Trajectory, *, ref_lat: float | None = None
) -> np.ndarray:
    """Label every record of a trajectory by Viterbi decoding."""
    return _hmm_decode(model, traj.lons, traj.lats, traj.times, [len(traj)], ref_lat)


def _hmm_decode(model: HmmModel, lons, lats, times, sizes, ref_lat=None) -> np.ndarray:
    """``hmm_predict`` of consecutive trajectories as columns: the symbols
    of all of them at once, then one ``viterbi`` call per trajectory."""
    syms = _symbols(lons, lats, times, sizes, model.buckets, ref_lat)
    states = np.zeros(len(times), dtype=np.int64)
    ends = np.cumsum(np.asarray(sizes, dtype=np.int64)).tolist()
    for a, b in zip([0] + ends, ends):
        if b > a:
            states[a:b] = viterbi(model.initial, model.transition, model.emission,
                                  syms[a:b])[0]
    return np.asarray(STATE_LABELS, dtype=np.int8)[states]

