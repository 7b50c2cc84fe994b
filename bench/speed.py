"""Machine speed probe, for timings that hold still on a shared machine.

On a small shared host the speed of a core changes by up to 1.8x within
seconds, as other tenants load the same physical core and memory system.
Across ten 30-second runs that drift alone spread the median wall time of
a call by 25%, more than any regression bound worth having.

While a call runs, a timer signal every ``PERIOD_S`` seconds runs a fixed
micro-kernel and records its duration.  The kernel is the same kind of work
as the program's hot loops: interpreted Python around numpy operations on
3-vectors.  ``NOMINAL_S / duration`` is the machine's momentary speed
relative to a fixed nominal speed, and the call's wall time times the mean
of that ratio is the time the call would have taken at nominal speed.  On
the same host this cut the spread (interquartile range over median) of
single calls from 38% to 6% on the rod workload and from 17% to 5% on the
geodesic one.  The probe costs about 0.3% of a call.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
# duration of one kernel at the nominal speed: a unit, the same for every
# commit measured, set so that nominal seconds read close to wall seconds
# on the 2-CPU host the benchmark was tuned on
NOMINAL_S = 5.0e-5

_A = np.array([0.3, 0.4, 0.5])
_B = np.array([0.1, -0.2, 0.9])


def _kernel() -> None:
    for _ in range(10):
        v = _A - _B * (_B @ _A)
        float(np.sqrt(v @ v))


def _timed_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def relative_speed(durations) -> float:
    """Mean of ``NOMINAL_S / duration``: 1.0 at nominal speed, 2.0 twice as fast."""
    return sum(NOMINAL_S / d for d in durations) / len(durations)


def current_speed(count: int = 20) -> float:
    """The machine's speed now, over ``count`` back-to-back kernels."""
    return relative_speed([_timed_kernel() for _ in range(count)])


class SpeedProbe:
    """Context manager sampling the machine's speed while its body runs.

    Samples are taken on entry, on exit, and every ``PERIOD_S`` seconds in
    between whenever the interpreter runs (a signal handler runs between
    bytecodes, so a long native call delays the next sample).
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        self.samples.append(_timed_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self) -> float:
        """Mean speed over the samples, relative to nominal."""
        return relative_speed(self.samples)
