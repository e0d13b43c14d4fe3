"""Synthetic mobility traces with continuous-time ground truth.

The generator produces a piecewise path in a local planar frame (meters):
dwell periods at fixed points alternating with constant-speed straight legs,
with dwell times and jump lengths drawn from truncated power laws. The path
is the ground truth; observations are positions read off the path at a given
set of timestamps, optionally perturbed by bounded uniform-disk jitter, and
converted to lon/lat around a configured origin.

Truth labels are defined on the continuous path: an instant is a dwell
instant when some time window of fixed length containing it keeps the path
inside a small spatial diameter, and a movement instant otherwise. For the
piecewise-constant/linear paths built here that test is decidable exactly by
evaluating candidate windows anchored at path vertices (see
:func:`continuous_labels`).

Determinism contract: one ``numpy.random.Generator`` drives one trajectory.
Draw order is fixed and documented per function, so any seed reproduces the
same path, schedule, jitter, and resampling byte for byte. A function that
owns its generator may take the uniforms in blocks (:func:`generate_ctrw`):
it uses the same doubles in the same order as one call per draw, and the
unused rest of the last block reaches nothing else. A function given a
caller's generator may skip draws it does not need by advancing the bit
generator by the same count (:func:`synth_schedule`), so the caller's next
draws are the same. A batch of generators may be seeded in one pass
(:func:`seeded`): each one's state, and so every draw, equals
``np.random.default_rng``'s for its key.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    METERS_PER_DEGREE,
    MobilityParams,
    Trajectory,
    _scale,
)


def _power_law_transform(exponent: float, lower: float, upper: float):
    """The inverse CDF of a power law ~ x^(-exponent) truncated to [lower,
    upper], applied to a uniform or an array of them. On a Python float it
    is Python's float math, which numpy's vector ``**`` can differ from in
    the last place."""
    if not 0 < lower < upper:
        raise ValueError("need 0 < lower < upper")
    if not exponent >= 1.0:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    if exponent == 1.0:
        # limiting form: log-uniform on [lower, upper]
        ratio = upper / lower
        return lambda u: lower * ratio**u
    k = 1.0 - exponent
    base, span, power = lower**k, upper**k - lower**k, 1.0 / k
    return lambda u: (base + u * span) ** power


@dataclass(frozen=True, eq=False)
class GroundTruthPath:
    """Piecewise dwell/leg path, held as its vertex polyline and per-period
    arrays only.

    Period k runs from vertex k to vertex k + 1 of ``vertex_times`` /
    ``vertex_x`` / ``vertex_y``; ``period_stay`` says whether it is a dwell
    (both vertices at one position) or a constant-speed straight leg. Linear
    interpolation over the vertices therefore reproduces the exact position
    at any time in [0, duration].

    The other per-period arrays are derived once from the vertices:
    ``period_start`` (the first vertex time), ``period_duration`` (the
    vertex time difference) and ``period_length`` (``math.hypot`` of the
    vertex differences: a leg's length, 0 for a dwell). Every array is
    read-only.
    """

    vertex_times: np.ndarray
    vertex_x: np.ndarray
    vertex_y: np.ndarray
    period_stay: np.ndarray
    duration: float
    origin_lon: float
    origin_lat: float
    period_start: np.ndarray = field(init=False, repr=False)
    period_duration: np.ndarray = field(init=False, repr=False)
    period_length: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vt, vx, vy = (
            np.asarray(v, dtype=np.float64)
            for v in (self.vertex_times, self.vertex_x, self.vertex_y)
        )
        stay = np.asarray(self.period_stay, dtype=bool)
        if not vx.shape == vy.shape == vt.shape == (stay.size + 1,):
            raise ValueError("need a position per vertex and a flag per period")
        # Python's hypot, not np.hypot: truth labels decide length >= delta_s
        lengths = map(math.hypot, np.diff(vx).tolist(), np.diff(vy).tolist())
        arrays = {
            "vertex_times": vt,
            "vertex_x": vx,
            "vertex_y": vy,
            "period_stay": stay,
            "period_start": vt[:-1],
            "period_duration": np.diff(vt),
            "period_length": np.fromiter(lengths, np.float64, stay.size),
        }
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def position_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=np.float64)
        x = np.interp(t, self.vertex_times, self.vertex_x)
        y = np.interp(t, self.vertex_times, self.vertex_y)
        return x, y

    def period_index_at(self, times) -> np.ndarray:
        """Index of the period holding each time; boundary instants resolve
        to the later period."""
        t = np.asarray(times, dtype=np.float64)
        idx = np.searchsorted(self.period_start, t, side="right") - 1
        return np.clip(idx, 0, self.period_stay.size - 1)


#: the most dwell cycles a walk may hold, counted by the bound ``duration /
#: wait_min``: the walk is drawn one cycle at a time, so a longer one would
#: run for hours
MAX_WALK_CYCLES = 10**6


@dataclass(frozen=True)
class CtrwConfig:
    """Continuous-time random-walk generator settings.

    Dwell durations follow a truncated power law on [wait_min, wait_max],
    jump lengths one on [jump_min, jump_max], directions are uniform, and
    legs move at constant ``speed`` m/s. ``start_span`` bounds the uniform
    square for the initial position. ``jitter_radius`` is the observation
    noise bound applied by :func:`observe`, not part of the path itself.
    Every field but ``seed`` must be finite, and both exponents at least 1.
    ``duration / wait_min``, which bounds the walk's dwell cycles, must not
    exceed MAX_WALK_CYCLES.
    """

    wait_exponent: float = 1.8
    wait_min: float = 1800.0
    wait_max: float = 86400.0
    jump_exponent: float = 1.75
    jump_min: float = 800.0
    jump_max: float = 20000.0
    speed: float = 10.0
    jitter_radius: float = 0.0
    duration: float = 259200.0
    start_span: float = 20000.0
    origin_lon: float = 116.4
    origin_lat: float = 39.9
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "seed" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not min(self.wait_exponent, self.jump_exponent) >= 1.0:
            raise ValueError("wait_exponent and jump_exponent must be >= 1")
        if not 0 < self.wait_min < self.wait_max:
            raise ValueError("need 0 < wait_min < wait_max")
        if not 0 < self.jump_min < self.jump_max:
            raise ValueError("need 0 < jump_min < jump_max")
        if not (self.speed > 0 and self.duration > 0):
            raise ValueError("speed and duration must be positive")
        if self.duration / self.wait_min > MAX_WALK_CYCLES:
            raise ValueError(
                f"duration / wait_min is {self.duration / self.wait_min:.6g}, "
                f"over the {MAX_WALK_CYCLES} dwell cycles a walk may hold"
            )
        if not self.jitter_radius >= 0:
            raise ValueError("jitter_radius must be >= 0")


def check_supports(config: CtrwConfig, params: MobilityParams) -> None:
    """Reject generator settings that break the labeling guarantees.

    Three couplings matter downstream: every dwell must outlast the time
    threshold (so dwells are certifiable and the vertex-anchored truth
    search in :func:`continuous_labels` is exact), every jump must be at
    least the spatial threshold (so distinct dwell points are separable),
    and jitter must stay under half the spatial threshold (so two reads of
    one dwell point lie less than the spatial threshold apart and never
    witness travel against each other). The bound does not keep such reads
    within the stay tolerance, a third of the spatial threshold, so jitter
    can still break a stay window.
    """
    problems = []
    if config.wait_min < params.delta_t:
        problems.append(
            f"wait_min {config.wait_min} is below the time threshold {params.delta_t}"
        )
    if config.jump_min < params.delta_s:
        problems.append(
            f"jump_min {config.jump_min} is below the spatial threshold {params.delta_s}"
        )
    if config.jitter_radius >= params.delta_s / 2:
        problems.append(
            f"jitter_radius {config.jitter_radius} reaches half the spatial "
            f"threshold {params.delta_s}"
        )
    if problems:
        raise ValueError("; ".join(problems))


# SeedSequence's hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def seeded(keys) -> Iterator[np.random.Generator]:
    """A generator for each key in turn, equal to ``np.random.default_rng(key)``:
    the same ``bit_generator.state``, so the same draws. A key is a
    non-negative int or a tuple of them.

    ``SeedSequence``'s hash runs once over all keys, on columns of their
    32-bit words (:func:`_seed_states`). Each generator is built only when
    it is asked for, a ``PCG64`` handed its four precomputed state words, so
    until then the batch holds 32 bytes per key.
    """
    states = _seed_states(keys)
    fixed = _fixed_seed()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return (generator(pcg64(fixed(words))) for words in states)


@cache
def _fixed_seed():
    """The minimal ``ISeedSequence`` whose ``generate_state`` returns the
    words it holds, the four uint64 words ``PCG64`` asks for. Made on first
    use, since defining it imports ``numpy.random``, which a command that
    draws nothing should not load."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeed(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds four uint64 words only")
            return self.words

    return FixedSeed


def _key_words(key) -> list[int]:
    """A seed key's entropy words as ``SeedSequence`` reads them, padded
    with zeros to the pool size: each int's 32-bit words, least significant
    first (0 is one word), the ints of a tuple one after another."""
    words = []
    for value in key if isinstance(key, tuple) else (key,):
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"seed keys must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    if len(words) < _POOL:
        words += [0] * (_POOL - len(words))
    return words


def _seed_states(keys) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of every key, one
    row each.

    Keys of up to four words are padded with zeros to four and hashed
    together. The padding changes nothing: the hash fills a missing pool
    word with the hash of 0. Words past the fourth are mixed in after the
    pool's own, so longer keys are hashed in groups of one word count.
    """
    words = [_key_words(key) for key in keys]
    groups: dict[int, list[int]] = {}
    for row, w in enumerate(words):
        groups.setdefault(len(w), []).append(row)
    states = np.empty((len(words), 4), dtype=np.uint64)
    for rows in groups.values():
        entropy = np.array([words[r] for r in rows], dtype=np.uint32).T
        states[rows] = _hash_words(entropy)
    return states


@cache
def _chain(init: int, mult: int, steps: int) -> np.ndarray:
    """A hash constant chain: ``init`` and its products with ``mult``, mod
    2**32, after each of ``steps`` steps, as a column."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hash_words(entropy: np.ndarray) -> np.ndarray:
    """numpy's ``SeedSequence`` hash on columns: ``entropy`` holds each
    key's 32-bit words down a column, at least four; the result holds each
    key's four uint64 state words in a row.

    Every ``hashmix`` call takes the next constant of one chain, whatever
    the words, so each step hashes all keys.
    """
    width = len(entropy)

    def hashmix(values, const, at, count):
        # one row per constant: ``values`` hashed with each of the next count
        values = values ^ const[at : at + count]
        values *= const[at + 1 : at + count + 1]
        values ^= values >> 16
        return values

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        out ^= out >> 16
        return out

    const = _chain(_INIT_A, _MULT_A, _POOL * width)
    pool = hashmix(entropy[:_POOL], const, 0, _POOL)
    at = _POOL
    # every pool word into every other, then each further word into all
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], const, at, _POOL - 1))
        at += _POOL - 1
    for src in range(_POOL, width):
        pool = mix(pool, hashmix(entropy[src], const, at, _POOL))
        at += _POOL
    # generate_state: eight 32-bit words from the pool, cycled, taken in
    # little-endian pairs
    state = hashmix(np.concatenate([pool, pool]), _chain(_INIT_B, _MULT_B, 8), 0, 8)
    state = state.astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T


def _uniforms(rng: np.random.Generator):
    """The generator's doubles one by one, drawn in blocks of 64: the same
    values in the same order as one ``rng.random()`` call each."""
    while True:
        yield from rng.random(64).tolist()


def generate_ctrw(config: CtrwConfig) -> GroundTruthPath:
    """Build one ground-truth path from the config seed: :func:`_walk` on
    ``np.random.default_rng(config.seed)``."""
    return _walk(config, np.random.default_rng(config.seed))


def _walk(config: CtrwConfig, rng: np.random.Generator) -> GroundTruthPath:
    """Build one ground-truth path from ``rng``; ``config.seed`` is not read.

    Draw order: initial position (one size-2 uniform), then per cycle one
    dwell duration, one jump length, one jump direction, each from one
    uniform. The uniforms come in blocks (:func:`_uniforms`); the generator
    is this function's alone, so the unused tail of the last block changes
    nothing else. Each uniform is transformed one at a time in Python float
    math, so every path equals the one drawn one ``rng.random()`` at a time.
    The final period is truncated at the horizon; legs are cut at the
    interpolated position.
    """
    x, y = rng.uniform(-config.start_span, config.start_span, 2).tolist()
    uniform = _uniforms(rng).__next__
    wait_at = _power_law_transform(config.wait_exponent, config.wait_min, config.wait_max)
    jump_at = _power_law_transform(config.jump_exponent, config.jump_min, config.jump_max)
    # rng.uniform(0, 2 pi) is 0 + 2 pi * u
    turn = 2.0 * math.pi
    duration = float(config.duration)
    vt, vx, vy, stay = [0.0], [x], [y], []
    t = 0.0
    while t < duration:
        t += wait_at(uniform())
        vt.append(min(t, duration))
        vx.append(x)
        vy.append(y)
        stay.append(True)
        if t >= duration:
            break
        length = jump_at(uniform())
        angle = turn * uniform()
        nx = x + length * math.cos(angle)
        ny = y + length * math.sin(angle)
        leg_seconds = length / config.speed
        end = t + leg_seconds
        if end <= duration:
            ex, ey = nx, ny
        else:
            frac = (duration - t) / leg_seconds
            ex, ey = x + frac * (nx - x), y + frac * (ny - y)
        vt.append(min(end, duration))
        vx.append(ex)
        vy.append(ey)
        stay.append(False)
        t = end
        x, y = nx, ny
    return GroundTruthPath(
        vertex_times=np.array(vt),
        vertex_x=np.array(vx),
        vertex_y=np.array(vy),
        period_stay=np.array(stay),
        duration=duration,
        origin_lon=config.origin_lon,
        origin_lat=config.origin_lat,
    )


def planar_to_lonlat(x, y, origin_lon: float, origin_lat: float):
    """Invert the equirectangular projection used by the analysis side,
    dividing by the longitude scale ``core.project_runs`` multiplies by.

    Latitude shifts by y alone, so projecting the result back with
    ``ref_lat=origin_lat`` recovers the planar offsets exactly (up to float
    rounding).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lats = origin_lat + y / METERS_PER_DEGREE
    lons = origin_lon + x / _scale(origin_lat)
    return lons, lats


def observe(
    path: GroundTruthPath,
    times,
    *,
    device: str = "sim00000",
    jitter_radius: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Read the path at integer-second timestamps and emit a trajectory.

    Jitter models imprecise dwell reports: only reads that fall inside a
    dwell period are displaced, uniformly within an open disk of the given
    radius (one block of radius uniforms, then one block of angles); leg
    reads stay exact.
    """
    t = np.asarray(times, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() > path.duration):
        raise ValueError("timestamps must lie within [0, duration]")
    x, y = path.position_at(t)
    if jitter_radius > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        in_dwell = path.period_stay[path.period_index_at(t)]
        k = int(in_dwell.sum())
        if k:
            r = jitter_radius * np.sqrt(rng.random(k))
            theta = rng.uniform(0.0, 2.0 * math.pi, k)
            x = x.copy()
            y = y.copy()
            x[in_dwell] += r * np.cos(theta)
            y[in_dwell] += r * np.sin(theta)
    lons, lats = planar_to_lonlat(x, y, path.origin_lon, path.origin_lat)
    return Trajectory(device=device, times=t, lons=lons, lats=lats)


#: the shortest gap of the observation schedule by default, in seconds
SCHEDULE_GAP_MIN = 60.0

#: uniforms :func:`synth_schedule` draws and transforms at a time
SCHEDULE_BLOCK = 512


def synth_schedule(
    rng: np.random.Generator,
    count: int,
    *,
    horizon: float = math.inf,
    gap_exponent: float = 1.6,
    gap_min: float = SCHEDULE_GAP_MIN,
    gap_max: float = 21600.0,
) -> np.ndarray:
    """Observation timestamps: cumulative sums of up to ``count`` power-law
    gaps, floored to whole seconds, those at or before ``horizon``.

    The gaps are drawn and transformed in blocks of SCHEDULE_BLOCK
    uniforms, each block's sums carried on from the last sum of the one
    before, so every time equals the one from a single draw of ``count``
    uniforms. Once a time passes the horizon every later one does too: the
    draws stop there, and the bit generator advances past the rest of the
    ``count`` uniforms, so the draws after this call are the same as ever.
    gap_min >= 2 keeps the result strictly increasing after flooring.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if gap_min < 2.0:
        raise ValueError("gap_min below 2 s can collide after flooring")
    if math.isnan(horizon):
        raise ValueError("horizon must not be NaN")
    transform = _power_law_transform(gap_exponent, gap_min, gap_max)
    blocks = [np.zeros(0, dtype=np.int64)]
    total = 0.0
    used = 0
    while used < count:
        size = min(SCHEDULE_BLOCK, count - used)
        used += size
        # slot 0 carries the running total, so the sums are the sequential ones
        sums = np.empty(size + 1)
        sums[0] = total
        sums[1:] = transform(rng.random(size))
        np.cumsum(sums, out=sums)
        total = sums[-1]
        times = np.floor(sums[1:]).astype(np.int64)
        if times[-1] > horizon:
            blocks.append(times[times <= horizon])
            break
        blocks.append(times)
    if used < count:
        _skip_uniforms(rng, count - used)
    return np.concatenate(blocks)


def _skip_uniforms(rng: np.random.Generator, count: int) -> None:
    """Move ``rng`` past ``count`` uniforms as if it had drawn them. A PCG64
    generator takes one step per uniform and advances at once, unless a
    32-bit draw left half a step buffered, which advancing would drop."""
    bits = rng.bit_generator
    if isinstance(bits, np.random.PCG64) and not bits.state["has_uint32"]:
        bits.advance(count)
    else:
        rng.random(count)


def resample(
    traj: Trajectory, rate: float, rng: np.random.Generator
) -> tuple[Trajectory, np.ndarray]:
    """Keep each record independently with probability ``rate``.

    Returns the kept records and the boolean keep mask, which carries any
    per-record array (labels, say) along. Always consumes one uniform per
    record, even at rate 0 or 1, so downstream draws stay aligned across
    rates run from a common generator state. rate=1 keeps everything.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    keep = rng.random(len(traj)) < rate
    sub = Trajectory(
        device=traj.device,
        times=traj.times[keep],
        lons=traj.lons[keep],
        lats=traj.lats[keep],
    )
    return sub, keep


def window_diameter(path: GroundTruthPath, start: float, delta_t: float) -> float:
    """Spatial diameter of the path over [start, start + delta_t].

    The path is piecewise linear in time, so the extreme pair lies among the
    window's two endpoint positions and the vertices strictly inside it.
    """
    end = start + delta_t
    ex, ey = path.position_at([start, end])
    lo = np.searchsorted(path.vertex_times, start, side="right")
    hi = np.searchsorted(path.vertex_times, end, side="left")
    px = np.concatenate([ex, path.vertex_x[lo:hi]])
    py = np.concatenate([ey, path.vertex_y[lo:hi]])
    d2 = (px[:, None] - px[None, :]) ** 2 + (py[:, None] - py[None, :]) ** 2
    return float(np.sqrt(d2.max()))


def _search_label(path: GroundTruthPath, t: float, params: MobilityParams) -> int:
    """Exact dwell/move decision at one instant by candidate-window search.

    A qualifying window's diameter, as a function of its start, is monotone
    or constant between consecutive vertex-crossing events, so only starts
    at {window bounds, vertex, vertex - delta_t} can be optimal. Exactness
    needs every dwell except the last to outlast delta_t; the caller checks
    that once per path.
    """
    lo = max(0.0, t - params.delta_t)
    hi = min(t, path.duration - params.delta_t)
    if hi < lo:
        return LABEL_TRAVEL
    cands = {lo, hi}
    left = np.searchsorted(path.vertex_times, t - params.delta_t, side="left")
    right = np.searchsorted(path.vertex_times, t + params.delta_t, side="right")
    for b in path.vertex_times[left:right]:
        for a in (b, b - params.delta_t):
            if lo <= a <= hi:
                cands.add(float(a))
    for a in sorted(cands):
        if window_diameter(path, a, params.delta_t) < params.delta_s:
            return LABEL_STAY
    return LABEL_TRAVEL


def continuous_labels(
    path: GroundTruthPath,
    times,
    params: MobilityParams,
) -> np.ndarray:
    """Ground-truth dwell/move label for each timestamp.

    Fast closed form where the local structure allows it: a timestamp inside
    a dwell of at least delta_t is a dwell instant; a timestamp on a leg
    whose neighbor dwells are full, whose jump is at least delta_s, and
    whose speed covers delta_s within delta_t is a dwell instant exactly
    when it lies within delta_s of either endpoint dwell point. Everything
    else (horizon-truncated tail, lone truncated dwell) falls back to the
    exact candidate-window search.

    The closed form runs over all timestamps at once, from the path's
    per-period arrays; only the fallback timestamps are searched one by
    one. Distances to a leg's endpoints are ``math.hypot``'s, as the leg
    length is, since both decide ``< delta_s`` and ``np.hypot`` can differ
    from it in the last place.

    Requires every dwell except the final period to last at least delta_t;
    raises otherwise because the search anchors would no longer be exhaustive.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size and (t.min() < 0 or t.max() > path.duration):
        raise ValueError("timestamps must lie within [0, duration]")
    d_s, d_t = params.delta_s, params.delta_t
    stay = path.period_stay
    duration = path.period_duration
    if (stay[:-1] & (duration[:-1] < d_t)).any():
        raise ValueError(
            "interior dwell shorter than delta_t; exact labeling unsupported"
        )
    full = stay & (duration >= d_t)
    # legs between two full dwells, at least delta_s long and fast enough to
    # cover delta_s within delta_t
    closed = np.zeros(len(stay), dtype=bool)
    closed[1:-1] = ~stay[1:-1] & full[:-2] & full[2:]
    legs = np.flatnonzero(closed)
    length = path.period_length[legs]
    closed[legs] = (length >= d_s) & (length / duration[legs] * d_t >= d_s)

    idx = path.period_index_at(t)
    labels = np.where(full[idx], LABEL_STAY, LABEL_TRAVEL).astype(np.int8)
    on_leg = np.flatnonzero(closed[idx])
    k = idx[on_leg]
    frac = (t[on_leg] - path.period_start[k]) / duration[k]
    x0, y0 = path.vertex_x[k], path.vertex_y[k]
    x1, y1 = path.vertex_x[k + 1], path.vertex_y[k + 1]
    px = x0 + frac * (x1 - x0)
    py = y0 + frac * (y1 - y0)
    offsets = zip(*(v.tolist() for v in (px - x0, py - y0, px - x1, py - y1)))
    near = [math.hypot(a, b) < d_s or math.hypot(c, d) < d_s for a, b, c, d in offsets]
    labels[on_leg[near]] = LABEL_STAY
    for i in np.flatnonzero(~(full | closed)[idx]).tolist():
        labels[i] = _search_label(path, float(t[i]), params)
    return labels
