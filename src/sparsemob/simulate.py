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
same path, schedule, jitter, and resampling byte for byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LABEL_STAY,
    LABEL_TRAVEL,
    METERS_PER_DEGREE,
    MobilityParams,
    Trajectory,
)


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
    if not 0 < lower < upper:
        raise ValueError("need 0 < lower < upper")
    if exponent < 1.0:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    u = rng.random() if size is None else rng.random(size)
    if exponent == 1.0:
        # limiting form: log-uniform on [lower, upper]
        return lower * (upper / lower) ** u
    k = 1.0 - exponent
    return (lower**k + u * (upper**k - lower**k)) ** (1.0 / k)


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


@dataclass(frozen=True, eq=False)
class GroundTruthPath:
    """Piecewise dwell/leg path plus its vertex polyline.

    ``vertex_times`` / ``vertex_x`` / ``vertex_y`` trace the same path as
    ``periods``: each dwell contributes its two endpoints at one position,
    each leg its endpoints, shared vertices deduplicated. Linear
    interpolation over the vertices therefore reproduces the exact position
    at any time in [0, duration].
    """

    periods: tuple
    vertex_times: np.ndarray
    vertex_x: np.ndarray
    vertex_y: np.ndarray
    duration: float
    origin_lon: float
    origin_lat: float

    def __post_init__(self) -> None:
        for name in ("vertex_times", "vertex_x", "vertex_y"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def position_at(self, times) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(times, dtype=np.float64)
        x = np.interp(t, self.vertex_times, self.vertex_x)
        y = np.interp(t, self.vertex_times, self.vertex_y)
        return x, y

    def period_index_at(self, times) -> np.ndarray:
        """Index into ``periods`` for each time; boundary instants resolve to
        the later period."""
        starts = np.array([p.start for p in self.periods])
        idx = np.searchsorted(starts, np.asarray(times, dtype=np.float64), side="right") - 1
        return np.clip(idx, 0, len(self.periods) - 1)


@dataclass(frozen=True)
class CtrwConfig:
    """Continuous-time random-walk generator settings.

    Dwell durations follow a truncated power law on [wait_min, wait_max],
    jump lengths one on [jump_min, jump_max], directions are uniform, and
    legs move at constant ``speed`` m/s. ``start_span`` bounds the uniform
    square for the initial position. ``jitter_radius`` is the observation
    noise bound applied by :func:`observe`, not part of the path itself.
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
        if not 0 < self.wait_min < self.wait_max:
            raise ValueError("need 0 < wait_min < wait_max")
        if not 0 < self.jump_min < self.jump_max:
            raise ValueError("need 0 < jump_min < jump_max")
        if self.speed <= 0 or self.duration <= 0:
            raise ValueError("speed and duration must be positive")
        if self.jitter_radius < 0:
            raise ValueError("jitter_radius must be >= 0")


def check_supports(config: CtrwConfig, params: MobilityParams) -> None:
    """Reject generator settings that break the labeling guarantees.

    Three couplings matter downstream: every dwell must outlast the time
    threshold (so dwells are certifiable and the vertex-anchored truth
    search in :func:`continuous_labels` is exact), every jump must be at
    least the spatial threshold (so distinct dwell points are separable),
    and jitter must stay under half the spatial threshold (so two reads of
    one dwell point can never look like an escape at the stay tolerance).
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


def generate_ctrw(config: CtrwConfig) -> GroundTruthPath:
    """Build one ground-truth path from the config seed.

    Draw order: initial position (one size-2 uniform), then per cycle one
    dwell duration, one jump length, one jump direction. The final period is
    truncated at the horizon; legs are cut at the interpolated position.
    """
    rng = np.random.default_rng(config.seed)
    x, y = rng.uniform(-config.start_span, config.start_span, 2)
    duration = float(config.duration)
    periods: list = []
    t = 0.0
    while t < duration:
        wait = float(
            sample_truncated_power_law(
                rng, config.wait_exponent, config.wait_min, config.wait_max
            )
        )
        periods.append(StayPeriod(t, min(t + wait, duration), x, y))
        t += wait
        if t >= duration:
            break
        length = float(
            sample_truncated_power_law(
                rng, config.jump_exponent, config.jump_min, config.jump_max
            )
        )
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

    vt = [0.0]
    vx = [periods[0].x]
    vy = [periods[0].y]
    for p in periods:
        if isinstance(p, StayPeriod):
            end_x, end_y = p.x, p.y
        else:
            end_x, end_y = p.x1, p.y1
        vt.append(p.end)
        vx.append(end_x)
        vy.append(end_y)
    return GroundTruthPath(
        periods=tuple(periods),
        vertex_times=np.array(vt),
        vertex_x=np.array(vx),
        vertex_y=np.array(vy),
        duration=duration,
        origin_lon=config.origin_lon,
        origin_lat=config.origin_lat,
    )


def planar_to_lonlat(x, y, origin_lon: float, origin_lat: float):
    """Invert the equirectangular projection used by the analysis side.

    Latitude shifts by y alone, so projecting the result back with
    ``ref_lat=origin_lat`` recovers the planar offsets exactly (up to float
    rounding).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lats = origin_lat + y / METERS_PER_DEGREE
    lons = origin_lon + x / (METERS_PER_DEGREE * math.cos(math.radians(origin_lat)))
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
        in_dwell = np.array(
            [isinstance(path.periods[i], StayPeriod) for i in path.period_index_at(t)]
        )
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


def synth_schedule(
    rng: np.random.Generator,
    count: int,
    *,
    gap_exponent: float = 1.6,
    gap_min: float = 60.0,
    gap_max: float = 21600.0,
    start: int = 0,
) -> np.ndarray:
    """Observation timestamps: cumulative sums of ``count`` power-law gaps.

    One vectorized block of ``count`` uniforms; floored to whole seconds,
    and gap_min >= 2 keeps the result strictly increasing after flooring.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if gap_min < 2.0:
        raise ValueError("gap_min below 2 s can collide after flooring")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    gaps = sample_truncated_power_law(rng, gap_exponent, gap_min, gap_max, size=count)
    return (start + np.floor(np.cumsum(gaps))).astype(np.int64)


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

    Requires every dwell except the final period to last at least delta_t;
    raises otherwise because the search anchors would no longer be exhaustive.
    """
    t = np.asarray(times, dtype=np.float64)
    if t.size and (t.min() < 0 or t.max() > path.duration):
        raise ValueError("timestamps must lie within [0, duration]")
    for p in path.periods[:-1]:
        if isinstance(p, StayPeriod) and p.duration < params.delta_t:
            raise ValueError(
                "interior dwell shorter than delta_t; exact labeling unsupported"
            )
    labels = np.full(t.size, LABEL_TRAVEL, dtype=np.int8)
    idx = path.period_index_at(t)
    exact: list[int] = []
    n_periods = len(path.periods)
    for k, (ti, pi) in enumerate(zip(t, idx)):
        period = path.periods[pi]
        if isinstance(period, StayPeriod):
            if period.duration >= params.delta_t:
                labels[k] = LABEL_STAY
            else:
                exact.append(k)
            continue
        nxt = path.periods[pi + 1] if pi + 1 < n_periods else None
        prv = path.periods[pi - 1] if pi > 0 else None
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
