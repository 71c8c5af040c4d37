"""Times at a reference host speed.

On a shared machine the CPU time of the same work swings by up to 1.8x in
phases of seconds to a minute (presumably other tenants sharing the
physical core), so a run of half a minute measures the host as much as the
library.  A fixed reference kernel, run right before every timed call and
once after the last, measures how slow the core is at that moment; a
call's time is scaled by REFERENCE_S over the mean of the kernel's times
around it.

The kernel is the library's two kinds of work on fixed data: Horner's rule
on a numpy array of points, as a branch-and-bound wave evaluates a
polynomial, and a Taylor shift of a list of Python complex numbers, as a
descent step does.  They take about 2:3 of its time, the share that, on
recorded runs, scaled the times of cli-lowdeg and descent-deep steadiest
together; the shift alone suits descent best, the array alone
branch-and-bound.  The kernel lives in the benchmark, so a change to the
library does not change it.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's CPU time on an uncontended core of a 2.0 GHz Xeon (the 5th
# percentile of 16,000 runs interleaved with cli-lowdeg calls).  Scaled
# times are CPU times on such a core.
REFERENCE_S = 0.29e-3

_POINTS = np.linspace(-1.0, 1.0, 1500) + 0.5j
_ARRAY_COEFFS = np.array([complex(0.3 * k, 1.0 - 0.2 * k) for k in range(13)])
_SHIFT_COEFFS = tuple(complex(0.3 * k, 1.0 - 0.2 * k) for k in range(20))
_SHIFT_BY = 0.01 + 0.02j


def kernel() -> float:
    """CPU seconds of one run of the reference kernel (about 0.3 ms)."""
    start = time.thread_time()
    for _ in range(2):
        acc = np.zeros_like(_POINTS)
        for c in _ARRAY_COEFFS:
            acc = acc * _POINTS + c
        np.abs(acc).min()
    n = len(_SHIFT_COEFFS)
    for _ in range(7):
        a = list(_SHIFT_COEFFS)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                a[i] += _SHIFT_BY * a[i + 1]
    return time.thread_time() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds of CPU time, at the reference speed, given the kernel's
    times right before and right after."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
