"""The host's speed, sampled while a unit of work runs.

The benchmark shares a host whose speed for one Python thread swings by
±25% within a minute (other tenants' load on the same cores and caches; the
process loses no time to the scheduler, so CPU time swings with it).  A
wall-clock unit time taken at one moment is therefore not comparable with
one taken a few minutes later.  `HostSpeed` times a fixed reference kernel
every PERIOD seconds of wall time from a SIGALRM handler, so the samples
cover the whole unit, not only its ends; `run_ref` divides the unit's own
time (handler time taken out) by the harmonic mean of the samples.  Both
share the host at the same moments, so the ratio keeps what the program
does and drops most of what the host does.

The kernel mimics the program's hot loops: RK4 steps of a small cubic
vector field on 4-element numpy arrays, and a scalar bisection through
0-d arrays, as the gain inverses do.  It reads and writes no state of the
program, and Python runs the handler between bytecodes of the main thread,
so the unit's results are unchanged (`selftest.py` checks this).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.5  # s of wall time between samples
REFERENCE_STEPS = 600  # about 25 ms on a quiet 2.1 GHz core

_A = np.array([
    [-1.0, 0.3, 0.0, 0.1],
    [0.0, -0.8, 0.2, 0.0],
    [0.1, 0.0, -1.2, 0.3],
    [0.0, 0.1, 0.0, -0.9],
])
_X0 = np.array([0.5, -0.3, 0.2, 0.1])
_H = 1e-3


def _field(x):
    return _A @ x - 0.1 * x**3


def reference_kernel(steps: int = REFERENCE_STEPS) -> float:
    x = _X0.copy()
    for _ in range(steps):
        k1 = _field(x)
        k2 = _field(x + 0.5 * _H * k1)
        k3 = _field(x + 0.5 * _H * k2)
        k4 = _field(x + _H * k3)
        x = x + _H / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lo, hi = 0.0, 10.0
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if float(np.asarray(mid) ** 2) < 2.0:
                lo = mid
            else:
                hi = mid
    return float(x.sum())


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Context manager: samples the reference kernel while a unit runs.

    `samples` holds the kernel times, one every PERIOD of wall time (one
    after the unit if it was shorter than PERIOD); `spent` is the handler
    time inside the unit, which the caller subtracts from the unit's wall
    time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def __enter__(self) -> "HostSpeed":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(_timed_kernel())

    def _sample(self, signum, frame) -> None:
        dt = _timed_kernel()
        self.samples.append(dt)
        self.spent += dt

    def reference_s(self) -> float:
        """The kernel time matching the unit: the harmonic mean of the samples.

        The samples are spaced evenly in wall time and the host's speed is
        1/sample, so their harmonic mean is the kernel time at the host's
        mean speed over the unit.  The median would follow whichever speed
        held for most of the unit and miss a slow spell that held for less.
        """
        return statistics.harmonic_mean(self.samples)
