"""Host-speed calibration.

On a shared host, co-tenants slow every call by up to 2x for seconds to
minutes at a time, and CPU time slows with wall time (no steal is
reported).  A fixed kernel of interpreter and small-numpy work slows by the
same factor: on the reference host the ratio call/kernel spreads by 10%
where raw times spread by 45%.  ``HostClock`` times the kernel just before
and just after each call and, for in-process calls, every ``TICK_S`` during
it (from a SIGALRM handler, whose time is taken out of the call's).  It
reports the call's wall time scaled to a host on which the kernel takes
exactly ``REFERENCE_S``.  The kernel does not touch qifkit, so a change to
qifkit cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
TICK_S = 0.2
_GRID = np.arange(1, 65) / 64.0


def kernel() -> float:
    total = 0.0
    for i in range(150):
        total += float(np.log(_GRID * (i + 1)).sum()) + math.sqrt(i)
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return total + counts[0]


def kernel_seconds() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class HostClock:
    """Times calls and scales them by the calibration kernel."""

    def __init__(self) -> None:
        self.last = kernel_seconds()
        self.samples: list[float] = []
        self._ticks: list[float] = []
        self.elapsed = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        self._ticks.append(kernel_seconds())

    def time(self, call, sampled: bool = True):
        """Run ``call``; return (result, scaled seconds).  ``sampled=False``
        skips the in-call samples, for calls that wait on a child process:
        a sample then would compete with the child for the run's CPU."""
        before, self._ticks = self.last, []
        if sampled:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        started = time.perf_counter()
        try:
            result = call()
        finally:
            raw = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            ticks = self._ticks
            self.last = kernel_seconds()
            speed = statistics.fmean([before, self.last, *ticks])
            self.samples.append(speed)
            self.elapsed = (raw - sum(ticks)) * REFERENCE_S / speed
        return result, self.elapsed
