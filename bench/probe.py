"""Machine-speed probe: times a fixed unit of reference work every 25 ms.

The benchmark machine's speed drifts (measured: up to 1.7x between phases
lasting seconds, on a shared two-core virtual machine), and a drift longer
than a pass moves wall-clock figures by far more than any bound worth
keeping.  The probe samples the speed from inside whatever the process runs:
a wall-clock interval timer interrupts the interpreter, and the handler times
``reference_work``.  A job's wall time, less the probes taken during it, is
then rescaled by ``NOMINAL_PROBE_S / mean probe time`` around the job: the
time the job would have taken on a machine running the probe at its nominal
speed.  The probe takes about 1.5% of the run.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.025
NOMINAL_PROBE_S = 4.0e-4
MIN_SAMPLES = 8

_VALUES = [1.0 + 1e-3 * i for i in range(64)]
_GRID = np.linspace(0.0, 1.0, 401)


def reference_work() -> float:
    """A fixed mix of interpreted float arithmetic and small-array numpy
    calls, the two kinds of work widthlab's engines do."""
    s = 0.0
    for _ in range(96):
        for v in _VALUES:
            s = s * 0.999 + v
    u = _GRID
    for _ in range(20):
        u = u + 1e-3 * (u[::-1] - u)
        s += float(np.max(np.abs(u)))
    return s


class Probe:
    """Collects (time, duration) samples while entered."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_work()
        self.times.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self) -> None:
        """Take ``MIN_SAMPLES`` samples now, back to back."""
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)

    def spent(self, start: float, end: float) -> float:
        """Seconds the probe itself took within [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.durations[lo:hi])

    def normalized(self, start: float, end: float) -> float:
        """Seconds at nominal speed for the interval [start, end].

        The speed is the mean probe time over the probes inside the interval,
        or over the ``MIN_SAMPLES`` probes nearest its midpoint when fewer
        fell inside; the probes' own time is not counted as work.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        spent = self.spent(start, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, 0.5 * (start + end))
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        speed = sum(self.durations[lo:hi]) / (hi - lo)
        return (end - start - spent) * NOMINAL_PROBE_S / speed
