"""Timings corrected for the speed the CPU ran at.

On a shared machine the same pure-Python work runs up to about 1.7 times
slower while other tenants load the core, in phases of seconds to minutes.
Raw wall times then spread more from run to run than any change worth
measuring.  So every timed interval is also measured in reference seconds:
a tiny fixed probe (Fraction arithmetic and a dict, like the package's own
inner loops) runs on a timer every PERIOD_S inside the measured process,
and an interval's own time, probe time excluded, is scaled by the mean of
REFERENCE_S / probe time over the probes taken during it (its nearest
MIN_PROBES when it is too short to hold that many).  Probes are evenly
spaced in wall time, so that mean is the time-weighted speed.

REFERENCE_S is the probe's time on an unloaded core of the machine the
baseline was taken on (README.md), so reference seconds read as that
machine's unloaded seconds.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 170e-6
PERIOD_S = 0.02
MIN_PROBES = 8


def probe():
    x = Fraction(1, 3)
    seen = {}
    for k in range(1, 40):
        x = x * Fraction(k, k + 1) + Fraction(1, k)
        seen[(k, x.denominator % 7)] = x
    return x


def speed_now(n: int = 40) -> float:
    """Mean REFERENCE_S / probe time over n probes run back to back."""
    total = 0.0
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        total += REFERENCE_S / (time.perf_counter() - t0)
    return total / n


class SpeedClock:
    """Samples CPU speed on SIGALRM while active (use as a context manager)."""

    def __init__(self):
        self.starts: list = []
        self.speeds: list = []
        self.costs: list = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.costs.append(dt)
        self.speeds.append(REFERENCE_S / dt)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the interval [a, b] of perf_counter time."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        own = (b - a) - sum(self.costs[lo:hi])
        n = len(self.starts)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < n):
            if lo > 0 and (hi >= n or a - self.starts[lo - 1] < self.starts[hi] - b):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return own
        return own * sum(self.speeds[lo:hi]) / (hi - lo)
