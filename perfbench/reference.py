"""A fixed amount of interpreter work, timed to gauge the host's speed.

The host this benchmark runs on is shared: its speed drifts by up to half
for seconds to minutes at a time, for every process alike. Timing this loop
next to a measurement tells how fast the host ran then; ``scale`` turns a
time measured between two reference runs into the time it would have taken
at the nominal speed. The loop is pure Python and independent of the package
under test, and this module imports nothing else, so a fresh interpreter can
load it without touching what its set-up measurement times.
"""
import time

REFERENCE_LOOPS = 40_000
#: The reference loop's time when the host runs at full speed (about its
#: fastest time on a 2-vCPU x86-64 host with Python 3.11).
REFERENCE_NOMINAL_S = 0.006


def reference() -> float:
    """Seconds for a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    total, seen = 0, {}
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
        seen[i & 255] = str(i)
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float, exponent: float = 1.0) -> float:
    """``seconds`` measured between reference runs that took ``before`` and
    ``after``, at the nominal speed, for work whose time grows as the
    reference time to the power ``exponent``."""
    return seconds * (REFERENCE_NOMINAL_S / ((before + after) / 2)) ** exponent
