"""Host-speed sampling, so that timings on a shared host can be normalised.

The benchmark runs on a few vCPUs of a machine shared with other tenants.
The speed of one vCPU drifts by up to 1.5x over seconds to minutes as they
come and go; CPU time moves with wall time, so the slowdown is the CPU
itself, not preemption.  A run's median moves with the host, and two sets of
runs made at different times differ by more than any useful bound.

A `Sampler`, while on, runs a fixed reference burst from a SIGALRM handler
every PERIOD_S, so the host's speed is sampled evenly in time, during the
ops themselves.  An interval's *normalised* time is its wall time, less the
bursts that ran inside it, times NOMINAL_S over the mean burst time around
it: the time it would take on a host where one burst takes NOMINAL_S.  A
change to vfgrowth moves the normalised time in the same proportion as the
wall time; a change in the host's speed moves both the interval and the
bursts around it, and cancels.

The handler runs between bytecodes of the main thread, so a burst lies
wholly inside or wholly outside any interval the main thread times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# About the mean burst time on the measuring host (a shared Sapphire Rapids
# vCPU, Python 3.11), so that normalised seconds are close to the wall
# seconds seen there; it sets only their scale.
NOMINAL_S = 450e-6


def burst():
    """Fixed reference work in the mix of vfgrowth's inner loops: Fraction
    arithmetic, tuple hashing and dict updates."""
    table = {}
    x = Fraction(1, 3)
    for i in range(40):
        key = (i, i * 7 % 13, i ^ 5)
        table[key] = table.get(key, 0) + 1
        f = Fraction(i + 1, 3)
        x = x * f / f - Fraction(1, 7)
    return x


class Sampler:
    """Records (start, seconds) of each reference burst while running."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts = []
        self.seconds = []

    def _handler(self, signum, frame):
        self.sample()

    def sample(self, n: int = 1):
        """Run and record n bursts now; outside the handler, call it only
        while paused, so that the records stay in time order."""
        for _ in range(n):
            t0 = perf_counter()
            burst()
            self.starts.append(t0)
            self.seconds.append(perf_counter() - t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """No bursts inside, so none runs beside a child process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of bursts that ran inside [t0, t1)."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return sum(self.seconds[i:j])

    def net(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1) less the bursts inside it."""
        return (t1 - t0) - self.busy(t0, t1)

    def mean_burst(self, t0: float, t1: float) -> float:
        """Mean burst time over [t0, t1) widened by two periods each side,
        and to the nearest bursts if that holds fewer than two."""
        i = bisect.bisect_left(self.starts, t0 - 2 * self.period)
        j = bisect.bisect_right(self.starts, t1 + 2 * self.period)
        while j - i < 2 and (i > 0 or j < len(self.starts)):
            i, j = max(i - 1, 0), min(j + 1, len(self.starts))
        if i == j:
            raise RuntimeError("no host-speed samples were taken")
        return statistics.fmean(self.seconds[i:j])

    def normalised(self, t0: float, t1: float) -> float:
        """Net time of [t0, t1) at the nominal host speed."""
        return self.net(t0, t1) * NOMINAL_S / self.mean_burst(t0, t1)
