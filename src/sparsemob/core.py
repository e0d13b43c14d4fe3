"""Domain types and primitive operations for sparse location trajectories.

A trajectory is a time-ordered sequence of (timestamp, longitude, latitude)
records for one device. Timestamps are integer epoch seconds; sub-second
precision is truncated at ingestion. All distance computations in this package
go through a single planar approximation (:func:`planar_distance`) using a
fixed reference latitude per dataset, so that comparisons against thresholds
are consistent across modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
#: meters per degree of latitude (and of longitude at the equator)
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0


class MetricUndefinedError(ValueError):
    """Raised when a metric's minimum-support precondition is not met."""


# Compact integer codes used for label arrays in hot paths.
LABEL_UNLABELED = 0
LABEL_STAY = 1
LABEL_TRAVEL = 2

_LETTERS = "UST"  # indexed by code
_CODE_BY_LETTER = {letter: code for code, letter in enumerate(_LETTERS)}


def codes_to_letters(codes: np.ndarray) -> list[str]:
    return [_LETTERS[c] for c in np.asarray(codes).tolist()]


def letters_to_codes(letters: Iterable[str]) -> np.ndarray:
    try:
        return np.array([_CODE_BY_LETTER[s] for s in letters], dtype=np.int8)
    except KeyError as exc:  # pragma: no cover - defensive
        raise ValueError(f"unknown label letter: {exc.args[0]!r}") from None


@dataclass(frozen=True)
class GeoPoint:
    """A WGS-84 longitude/latitude pair in decimal degrees."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A single device's records in strictly increasing time order.

    Stored in columnar form (numpy arrays) because the labeling passes and the
    simulator work on millions of records. ``times`` are int64 epoch seconds,
    strictly increasing; duplicate timestamps must be rejected upstream at
    ingestion. A zero-length trajectory is permitted only as the output of
    down-sampling at rate 0; ingestion always yields at least one record.
    """

    device: str
    times: np.ndarray
    lons: np.ndarray
    lats: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.int64)
        lons = np.asarray(self.lons, dtype=np.float64)
        lats = np.asarray(self.lats, dtype=np.float64)
        if not (times.ndim == lons.ndim == lats.ndim == 1):
            raise ValueError("times, lons, lats must be one-dimensional")
        if not (len(times) == len(lons) == len(lats)):
            raise ValueError("times, lons, lats must have equal length")
        if len(times) > 0:
            if times[0] < 0:
                raise ValueError("timestamps must be non-negative")
            if len(times) > 1 and not (np.diff(times) > 0).all():
                raise ValueError(
                    f"timestamps must be strictly increasing for device {self.device!r}"
                )
            # written so that NaN fails the test too
            if not ((np.abs(lons) <= 180.0).all() and (np.abs(lats) <= 90.0).all()):
                raise ValueError("coordinates out of range or not finite")
        for name, arr in (("times", times), ("lons", lons), ("lats", lats)):
            arr = arr.copy() if not arr.flags.owndata else arr
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class MobilityParams:
    """Spatial/temporal thresholds defining a stay: within ``delta_s`` meters
    for at least ``delta_t`` seconds."""

    delta_s: float = 800.0
    delta_t: float = 1800.0

    def __post_init__(self) -> None:
        if not self.delta_s > 0:
            raise ValueError(f"delta_s must be positive, got {self.delta_s}")
        if not self.delta_t > 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")


def planar_distance(a: GeoPoint, b: GeoPoint, ref_lat: float) -> float:
    """Planar-approximation distance in meters.

    Latitude differences map to meters at the constant rate
    ``EARTH_RADIUS_M * pi / 180`` per degree; longitude differences are scaled
    by cos(ref_lat). ``ref_lat`` is fixed per dataset so that the induced
    metric is a true metric (symmetry and the triangle inequality hold), which
    the labeling proofs rely on.
    """
    k = METERS_PER_DEGREE
    dy = (a.lat - b.lat) * k
    dlon = a.lon - b.lon
    # the short way round the antimeridian
    if dlon > 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    dx = dlon * k * math.cos(math.radians(ref_lat))
    return math.hypot(dx, dy)


def project_to_meters(
    lons: np.ndarray, lats: np.ndarray, ref_lat: float
) -> tuple[np.ndarray, np.ndarray]:
    """Project lon/lat arrays to planar (x, y) meters about ``ref_lat``.

    Longitudes more than 180 degrees from the first one are shifted by 360
    first, so a device that crosses the antimeridian stays contiguous; others
    project unchanged. For a device whose longitudes then span less than 180
    degrees, pairwise Euclidean distances in this plane equal
    :func:`planar_distance`.
    """
    k = METERS_PER_DEGREE
    lons = np.asarray(lons, dtype=np.float64)
    # the span test is a cheap necessary condition for any shift
    if len(lons) and lons.max() - lons.min() > 180.0:
        d = lons - lons[0]
        lons = np.where(d > 180.0, lons - 360.0, np.where(d < -180.0, lons + 360.0, lons))
    x = lons * (k * math.cos(math.radians(ref_lat)))
    y = np.asarray(lats, dtype=np.float64) * k
    return x, y


def default_ref_lat(traj: Trajectory) -> float:
    """Dataset reference latitude convention: latitude of the first record."""
    if len(traj) == 0:
        raise ValueError("cannot take a reference latitude from an empty trajectory")
    return float(traj.lats[0])


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


def global_sparsity(traj: Trajectory) -> float:
    """Mean consecutive time gap in seconds.

    Raises :class:`MetricUndefinedError` for trajectories with fewer than two
    records, where no gap exists.
    """
    if len(traj) < 2:
        raise MetricUndefinedError(
            f"global sparsity undefined for {len(traj)} record(s)"
        )
    return float(np.diff(traj.times).mean())


def local_coverage(traj: Trajectory, delta_t: float) -> float:
    """Fraction of records that are not temporally isolated.

    A record is isolated when both of its adjacent gaps exceed ``delta_t``.
    Endpoint records have only one adjacent gap and are never isolated, so
    trajectories with fewer than three records score 1.0.
    """
    n = len(traj)
    if n < 1:
        raise MetricUndefinedError("local coverage undefined for an empty trajectory")
    if n < 3:
        return 1.0
    gaps = np.diff(traj.times)
    isolated = int(((gaps[:-1] > delta_t) & (gaps[1:] > delta_t)).sum())
    return (n - isolated) / n
