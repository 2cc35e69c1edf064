"""Contention correction for timings taken on a shared machine.

On a small VM the host's other tenants slow this process's core by up to
2x, switching on a millisecond scale with a duty cycle that drifts over
seconds to minutes; wall and CPU time of identical work then spread by
half their median between runs.  The correction samples
that slowdown in the measuring thread itself: a SIGALRM timer runs a
fixed, benchmark-owned kernel (small numpy matrix-vector steps plus
Python arithmetic, the same mix as the package's integrator loop) every
``period`` seconds and records its duration.  For a timed interval,

    factor    = mean(kernel durations inside it) / REFERENCE_S
    corrected = (raw time - time spent in the kernel) / factor

REFERENCE_S is the kernel's uncontended duration on the machine the
benchmark was tuned on, so a corrected figure reads as seconds on that
machine with no other tenant, in the way SPEC ratios refer to a reference
machine.  It is a constant rather than the fastest sample of each run:
that estimate itself moved by 13 % between runs.  On other hardware the
absolute figures shift by one common scale, and comparisons between two
commits on one machine stay valid.  The program under test cannot move
the factor as long as it stays single-threaded: a second busy thread or
process of its own would contend with the kernel and be corrected away.
"""

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
REFERENCE_S = 250e-6           # 2-vCPU Intel Xeon VM, python 3.11, numpy 2.4
_A = np.array([[-1.0, 2.0], [0.0, -1.5]])
_Y0 = np.array([0.3, 0.4])


def kernel(steps=40):
    """Fixed work: REFERENCE_S uncontended on the reference machine."""
    y = _Y0
    s = 0.0
    for _ in range(steps):
        y = y + 1e-3 * (_A @ y)
        s += math.sqrt(float(np.mean(y * y)))
    return s


class Calibrator:
    """Samples the kernel's duration on a timer while active."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0           # seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), self.spent


def correct(raw, spent, samples):
    """(corrected time, factor) for an interval measured as ``raw`` s."""
    factor = statistics.fmean(samples) / REFERENCE_S if samples else 1.0
    return (raw - spent) / factor, factor
