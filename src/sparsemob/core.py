"""Domain types and primitive operations for sparse location trajectories.

A trajectory is a time-ordered sequence of (timestamp, longitude, latitude)
records for one device. Timestamps are integer epoch seconds; a time with a
fraction is read at ingestion as the whole second it falls in. All distances
in this package compare squared Euclidean distances ``dx*dx + dy*dy`` in one
planar approximation at one reference latitude per trajectory: the given one
(the CLI's ``--ref-lat``, the same for every device), else the device's first
record's. One rule projects every record, so comparisons against
thresholds are consistent across modules: :func:`project_runs` projects
consecutive trajectories at once, each as if alone, with no per-trajectory
object, and :func:`planar` is that rule for one trajectory.
Beside it, :func:`radii` is the one rule that turns ``delta_s`` into the
radii those distances are compared against: the labeler's, the recall
pools', the oracle's and the leave-one-out check's.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
#: meters per degree of latitude (and of longitude at the equator)
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
#: the fixed offset, in seconds east of UTC, that wall-clock times and
#: hours of the week are read in unless configured otherwise (UTC+8)
DEFAULT_TZ_OFFSET = 8 * 3600


# Compact integer codes used for label arrays in hot paths.
LABEL_UNLABELED = 0
LABEL_STAY = 1
LABEL_TRAVEL = 2

_LETTERS = "UST"  # indexed by code
_CODE_BY_LETTER = {letter: code for code, letter in enumerate(_LETTERS)}


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
        return [_LETTERS[c] for c in self.labels.tolist()]


@dataclass(frozen=True)
class MobilityParams:
    """Spatial/temporal thresholds defining a stay: within ``delta_s`` meters
    for at least ``delta_t`` seconds.

    Every distance test compares squares: ``delta_s`` must be at least about
    4.475e-154 m, so that each radius of :func:`radii` squares to a normal
    float, not to 0.0, which a distance of 0 reaches, or to a subnormal."""

    delta_s: float = 800.0
    delta_t: float = 1800.0

    def __post_init__(self) -> None:
        if not self.delta_s > 0:
            raise ValueError(f"delta_s must be positive, got {self.delta_s}")
        r = min(radii(self))
        if r * r < sys.float_info.min:
            floor = 3.0 * math.sqrt(sys.float_info.min)
            raise ValueError(
                f"delta_s must be at least about {floor:.4g}, where every squared"
                f" radius is a normal float, got {self.delta_s}"
            )
        if not self.delta_t > 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")


def check_ref_lat(ref_lat: float) -> None:
    """Refuse a reference latitude off the sphere: outside [-90, 90], or NaN,
    at which every distance would be NaN and no record could escape a
    window."""
    if not -90.0 <= ref_lat <= 90.0:
        raise ValueError(f"ref_lat must lie in [-90, 90], got {ref_lat}")


def _scale(ref_lat: float) -> float:
    """Meters per degree of longitude at ``ref_lat``: by ``math.cos``, as a
    Python float, since ``np.cos`` can differ in the last place."""
    return METERS_PER_DEGREE * math.cos(math.radians(ref_lat))


def project_runs(
    lons: np.ndarray, lats: np.ndarray, sizes, ref_lat: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The one projection rule: consecutive trajectories' lon/lat arrays in
    planar (x, y) meters, each trajectory as if projected alone.

    ``lons`` and ``lats`` hold the trajectories one after another, ``sizes``
    their lengths. Each trajectory's longitudes more than 180 degrees from
    its first one are shifted by 360 first, so a device that crosses the
    antimeridian stays contiguous; others project unchanged. Longitude then
    maps to meters at the scale of ``ref_lat`` when given, else of the
    trajectory's first latitude, and latitude at ``METERS_PER_DEGREE``.
    With the reference latitude fixed for a trajectory, Euclidean distance
    in its plane is a true metric (symmetry and the triangle inequality
    hold), which the labeling proofs rely on. A ``ref_lat`` outside
    [-90, 90], NaN included, is a ``ValueError``.
    """
    if ref_lat is not None:
        check_ref_lat(ref_lat)
    lons = np.asarray(lons, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.int64)
    sizes = sizes[sizes > 0]
    heads = np.cumsum(sizes) - sizes
    refs = np.asarray(lats)[heads].tolist() if ref_lat is None else [ref_lat] * len(sizes)
    scale = np.repeat(list(map(_scale, refs)), sizes)
    # the span of all records is a cheap necessary condition for any shift
    if len(lons) and lons.max() - lons.min() > 180.0:
        d = lons - np.repeat(lons[heads], sizes)
        lons = np.where(d > 180.0, lons - 360.0, np.where(d < -180.0, lons + 360.0, lons))
    return lons * scale, np.asarray(lats, dtype=np.float64) * METERS_PER_DEGREE


def planar(traj: Trajectory, ref_lat: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The trajectory's records in planar (x, y) meters: :func:`project_runs`
    of it alone."""
    return project_runs(traj.lons, traj.lats, [len(traj)], ref_lat)


class Radii(NamedTuple):
    """Radii in meters of the plane: the stay pass's escape and the travel
    pass's witness radius; the dense-window radius of the stay pool, the
    oracle and the leave-one-out check; and the travel pool's witness
    radius."""

    escape: float
    witness: float
    dense: float
    travel_pool: float


def radii(params: MobilityParams) -> Radii:
    """The one rule that turns ``delta_s`` into radii.

    A window whose records lie within delta_s/3 of each other certifies a
    stay: each hop, record to record plus the unobserved detours on either
    side, spends at most a third of the diameter budget. A witness at delta_s
    or more on each side, the two at most delta_t apart, certifies travel.
    The recall pools hold what any labeler of the trajectory alone could
    flag: the members of dense windows at delta_s, and records with
    witnesses at delta_s/2.
    """
    d_s = params.delta_s
    return Radii(escape=d_s / 3.0, witness=d_s, dense=d_s, travel_pool=d_s / 2.0)
