"""The host's speed, measured beside the program, to scale its timings.

On a shared host the same call can run twice as slow from one minute to
the next, as other tenants load the machine, and the process's CPU time
slows down with its wall time.  ``HostSpeed`` times a fixed reference
kernel between the operations of a run; an operation's wall time times
``REFERENCE_S`` over the kernel's time around the operation is its time
on a host that runs the kernel in ``REFERENCE_S``.  The kernel calls
nothing in betaflow, so a change to the package moves the scaled times
as much as the wall times, while a change of the host's speed cancels.

The kernel mixes what the package spends its time on: scalar loops over
``math`` functions (the Stirling inversion's bisection, the special
functions) and numpy calls on 3-vectors and 3x3 matrices (the flow).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# About the kernel's median time (fastest of KERNEL_REPEATS) on the 2-CPU
# Intel Xeon VM the baseline was recorded on, whose samples ranged from
# 0.5 to 1.7 ms; scaled times read close to that host's usual wall times.
REFERENCE_S = 0.9e-3
KERNEL_REPEATS = 3
# Take a new sample before an operation when the last is this old.
SAMPLE_EVERY_S = 0.03

_V = np.array([1.5, 2.5, 3.5])
_M = np.array([[2.0, 0.3, 0.1], [0.3, 3.0, 0.2], [0.1, 0.2, 4.0]])


def kernel() -> float:
    """A fixed amount of interpreter-bound work, as the package does it."""
    acc = 0.0
    for i in range(1, 120):
        x = 1.0 + 0.01 * i
        # Bisection on a logarithmic residual, as in Stirling's _solve_u.
        lo, hi = 1e-3, 10.0
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if math.log(mid) + mid - x > 0.0:
                hi = mid
            else:
                lo = mid
        acc += lo + math.lgamma(x) + math.exp(-x)
        if i % 4 == 0:
            w = _V * x
            acc += float(np.max(np.abs(w - _V))) + float(_M @ w @ w)
    return acc


class HostSpeed:
    """Samples of the kernel's time through a run, and the scale they give
    an operation timed between them."""

    def __init__(self):
        self._samples: list[float] = []
        self._taken_at = -math.inf

    def sample(self) -> None:
        best = math.inf
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            kernel()
            best = min(best, perf_counter() - start)
        self._samples.append(best)
        self._taken_at = perf_counter()

    def mark(self) -> int:
        """Call before a timed operation; pass the mark to ``scale`` after
        the run's last ``sample()``.  Takes a sample first if the last one is
        older than SAMPLE_EVERY_S."""
        if perf_counter() - self._taken_at > SAMPLE_EVERY_S:
            self.sample()
        return len(self._samples) - 1

    def scale(self, mark: int) -> float:
        """REFERENCE_S over the kernel's time around the operation: the mean
        of the samples just before and just after it."""
        around = self._samples[mark:mark + 2]
        return REFERENCE_S / (sum(around) / len(around))

    @property
    def samples(self) -> list[float]:
        return list(self._samples)
