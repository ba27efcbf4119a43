"""Machine-speed probe: scales measured times to one reference speed.

On a shared virtual machine the CPU can switch between two speeds for
seconds to minutes at a time, with no steal time reported.  On the 2-vCPU
Intel Xeon (2.0 GHz) the reference was taken on, the probe below takes
about 0.25 ms in one state and 0.5 ms in the other, so the raw wall time
of identical work differs by up to 2x between runs.  A short fixed
pure-Python computation is therefore timed between ops, at most every
``PROBE_EVERY_S``, and each measured time is multiplied by
``PROBE_REF_S`` over the median probe time around it.  The raw times are
kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# probe time on an uncontended core of the reference machine
# (Intel Xeon at 2.0 GHz, Python 3.11.7)
PROBE_REF_S = 0.25e-3
PROBE_EVERY_S = 0.05
WINDOW_S = 0.25  # probes this close to an op, on either side, set its speed


def _probe_work() -> Fraction:
    s = Fraction(0)
    for i in range(1, 61):
        s += Fraction(1, i) * Fraction(i + 1, 7)
    return s


class SpeedProbe:
    def __init__(self):
        self.times: list = []
        self.durations: list = []

    def sample(self, force: bool = False) -> None:
        """Time the probe, unless one ran less than PROBE_EVERY_S ago."""
        t0 = time.perf_counter()
        if not force and self.times and t0 - self.times[-1] < PROBE_EVERY_S:
            return
        _probe_work()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured over [t0, t1] into reference time."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])
