"""Domain types and primitive operations for sparse location trajectories.

A trajectory is a time-ordered sequence of (timestamp, longitude, latitude)
records for one device. Timestamps are integer epoch seconds; sub-second
precision is truncated at ingestion. All distance computations in this package
compare squared Euclidean distances ``dx*dx + dy*dy`` in one planar
approximation at one reference latitude per trajectory: the given one (the
CLI's ``--ref-lat``, the same for every device), else the device's first
record's. :func:`planar` is that rule and the only projection every module
uses, so comparisons against thresholds are consistent across modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
#: meters per degree of latitude (and of longitude at the equator)
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
#: the fixed offset, in seconds east of UTC, that wall-clock times and
#: hours of the week are read in unless configured otherwise (UTC+8)
DEFAULT_TZ_OFFSET = 8 * 3600


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


@dataclass(frozen=True, eq=False)
class LabeledTrajectory:
    """A trajectory plus one label code per record (see the label codes)."""

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


def project_to_meters(
    lons: np.ndarray, lats: np.ndarray, ref_lat: float
) -> tuple[np.ndarray, np.ndarray]:
    """Project lon/lat arrays to planar (x, y) meters about ``ref_lat``.

    Longitudes more than 180 degrees from the first one are shifted by 360
    first, so a device that crosses the antimeridian stays contiguous; others
    project unchanged. Latitude maps to meters at ``METERS_PER_DEGREE``;
    longitude at that rate scaled by cos(ref_lat). With ``ref_lat`` fixed for
    the trajectory, Euclidean distance in this plane is a true metric
    (symmetry and the triangle inequality hold), which the labeling proofs
    rely on. The package projects trajectories through :func:`planar`.
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


def planar(
    traj: Trajectory, ref_lat: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The trajectory's records in planar (x, y) meters.

    Projected about ``ref_lat`` when given, else about the first record's
    latitude (0.0 for an empty trajectory, which needs none).
    """
    if ref_lat is None:
        ref_lat = float(traj.lats[0]) if len(traj) else 0.0
    return project_to_meters(traj.lons, traj.lats, ref_lat)


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
