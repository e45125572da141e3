"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the speed at which the same Python code
runs drifts by 20% and more over minutes, in CPU time as much as in
wall time, while the program's own work (SAT conflicts, propagations,
matcher calls) repeats exactly.  So the benchmark times a fixed
pure-Python kernel between the items of every pass and reports each
time metric in *reference seconds*:

    reference_s = measured_s * REFERENCE_KERNEL_S / median(kernel samples)

The kernel is the benchmark's own code and does not touch the program,
so a change to the program moves reference seconds exactly as it moves
raw seconds; only the machine's drift divides out.  The raw seconds are
printed beside them in every run's summary.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List

_pc = time.perf_counter

#: median kernel time on the machine the bounds were set on (a 2-vCPU
#: x86 VM at 2.1 GHz, CPython 3.11): reference seconds equal raw
#: seconds when that machine runs at its usual speed
REFERENCE_KERNEL_S = 0.00125

#: spacing of samples between items, so short items are not dominated
#: by calibration (at most ~6% of a pass)
MIN_GAP_S = 0.02


def kernel() -> int:
    """Dictionary, tuple and integer churn, like the interpreter-bound
    work of the verifier and the optimizer; about 1.25 ms."""
    table = {}
    for i in range(3000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
    return len(table)


class SpeedProbe:
    """Kernel samples taken during one stretch of measurement."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        t0 = _pc()
        kernel()
        elapsed = _pc() - t0
        self.samples.append(elapsed)
        self._last = _pc()
        return elapsed

    def between_items(self) -> float:
        """Sample if the last sample is at least MIN_GAP_S old.

        Returns the seconds spent, which the caller takes out of its
        own measurement.
        """
        if _pc() - self._last < MIN_GAP_S:
            return 0.0
        return self.sample()

    def factor(self) -> float:
        """Multiplier from measured seconds to reference seconds."""
        return REFERENCE_KERNEL_S / median(self.samples)
