"""Host-speed probe: wall times corrected for the speed of a shared core.

On a shared host the same command's wall time drifts with the speed the
host gives the core (up to 1.8x within a minute), far more than the
program varies.  A probe measures that speed while the command runs: a
SIGALRM timer interrupts the benchmark process every ``INTERVAL_S`` and
the handler times one of three fixed kernels, in turn, on the same thread
and core as the command.  No kernel touches ``diskmap``, so a change to the
program cannot change them.

``Probe.spent`` is the time the kernels took, which the caller subtracts
from the command's wall time; ``Probe.factor()`` is the reference speed
over the measured one, ``REF_S[k] / median kernel time``, as the
geometric mean over the three kernels.  A wall time times this factor is
the time the command would take at the reference speed, where each
kernel's median is ``REF_S``.  The probe costs about 2% of a command's
wall time; that is subtracted, and it runs only in untraced commands.

Python runs signal handlers in the main thread between bytecodes, so a
kernel never interrupts numpy or scipy mid-call; a long C call only
delays the next sample.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.04
# Median kernel times in a fast period on a 2-vCPU Intel Xeon virtual machine.
REF_S = {"py": 0.55e-3, "numpy": 1.0e-3, "objects": 0.75e-3}
MIN_SAMPLES = 3  # per kernel; fewer and factor() has no estimate

_TRIANGLE = np.linspace(0.0, 1.0, 9).reshape(3, 3)


def _kernel_py():
    """Interpreted float arithmetic, like per-face Python geometry."""
    acc = 0.0
    for i in range(3000):
        a = (i % 97) * 0.5
        acc += math.sqrt(a * a + 1.0) / (1.0 + a)
    return acc


def _kernel_numpy():
    """Small numpy calls, like per-face vector algebra."""
    acc = 0.0
    for _ in range(30):
        e = _TRIANGLE[1] - _TRIANGLE[0]
        n = np.cross(e, _TRIANGLE[2])
        acc += float(np.dot(n, n))
    return acc


def _kernel_objects():
    """Tuple, list and dict allocation, like edge tables and CSV rows."""
    table = {}
    for i in range(1500):
        table[(i, i + 1)] = [i, float(i)]
    return len(table)


KERNELS = {"py": _kernel_py, "numpy": _kernel_numpy, "objects": _kernel_objects}
_ORDER = tuple(KERNELS)


class Probe:
    """Context manager: samples the kernels while its block runs."""

    def __init__(self):
        self.samples = {k: [] for k in KERNELS}
        self.spent = 0.0
        self._next = 0
        self._previous = None

    def _sample(self, signum, frame):
        name = _ORDER[self._next]
        self._next = (self._next + 1) % len(_ORDER)
        start = perf_counter()
        KERNELS[name]()
        took = perf_counter() - start
        self.samples[name].append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float | None:
        """Reference speed over measured speed, or None with too few samples."""
        if any(len(v) < MIN_SAMPLES for v in self.samples.values()):
            return None
        logs = [math.log(REF_S[k] / statistics.median(v)) for k, v in self.samples.items()]
        return math.exp(sum(logs) / len(logs))
