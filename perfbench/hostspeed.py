"""A fixed reference kernel that samples how fast the host runs right now.

The benchmark's host is two vCPUs of a shared machine whose speed drifts
over minutes as neighbours come and go.  Over one five-minute stretch the
median ``sparse_evict`` cell, timed in 36 s windows, ranged over 54% of
its median and the one-day ``trace_sweep`` pass over 53%; raw medians of
such runs compare host moods, not programs.  Each repetition therefore
times this kernel right before and right after its timed window, and the
end-to-end timings are reported in reference seconds::

    reported = measured * REFERENCE_S / mean(kernel passes of the repetition)

Over the same stretch the reported times ranged over 19% and 18%.  The
mean, not the median, of the passes is used because the measured window
integrates short stalls of the vCPU, and the mean does too.

The kernel does not call the program, so a change that makes the program
faster lowers the reported time in the same proportion as the measured
one.  It mixes what the simulator spends its time on: interpreted loops
over dicts, lists and floats, many numpy calls on arrays of a few dozen
elements, and a few on arrays of thousands.  ``run.py --trace 1``
reports the measured times and the kernel's time beside the per-layer
figures.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: The kernel's mean time on the 2-vCPU host the benchmark was tuned on.
#: Only ratios of reported times carry meaning; the constant keeps the
#: reported values near measured seconds.
REFERENCE_S = 0.015

_SMALL = np.arange(32, dtype=np.float64)
_LARGE = np.arange(4096, dtype=np.float64)[::-1].copy()


def kernel() -> float:
    """One pass of the reference kernel; returns a checksum so it is not idle."""
    total = 0.0
    table = {}
    items = []
    for i in range(15000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append((key, i))
        if len(items) > 64:
            total += sum(v for _, v in items) * 1e-9
            items.clear()
    for i in range(1500):
        view = _SMALL[i & 15:]
        total += float(np.cumsum(view)[-1]) + float(np.argmax(view))
    for _ in range(15):
        total += float(np.sort(_LARGE)[0]) + float(np.cumsum(_LARGE)[-1])
    return total + len(table)


def sample(count: int) -> List[float]:
    """Time *count* passes of the kernel."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def mean_pass(samples: List[float]) -> float:
    return statistics.fmean(samples)
