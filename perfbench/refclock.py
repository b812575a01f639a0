"""Program CPU time, converted to seconds of a reference host.

On a shared host the speed of one CPU second moves by up to ~20% from
one second to the next (other tenants on the same core, clock changes),
and the benchmark's CPU time moves with it. So a fixed calibration
kernel is timed at every cell boundary, and each stretch of program CPU
time between two boundaries is converted at the mean kernel time at its
two ends::

    ref_s += stretch_cpu_s * CAL_REF_S / kernel_s

A change to the program leaves the kernel alone, so it moves ``ref_s``
as it moves CPU time; a faster or slower host moves both the stretch
and the kernel and cancels. Kernel time is not program time.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: CPU seconds one :func:`calibration_kernel` call takes on the reference
#: host (a 2-core x86 KVM guest), so ``ref_s`` reads as that host's CPU
#: seconds
CAL_REF_S = 0.0076


def calibration_table() -> np.ndarray:
    """The kernel's 4 MiB table: larger than a core's L2, like the
    simulator's working set, so cache pressure from other tenants slows
    the kernel as it slows the program."""
    return np.arange(1 << 19, dtype=np.int64) * 2654435761 % 1000003


def calibration_kernel(table: np.ndarray) -> None:
    """Fixed work in the simulator's mix: heap and dict traffic in pure
    Python, then gathers, sorts, uniques and searches over numpy arrays."""
    heap, counts = [], {}
    for i in range(3000):
        heapq.heappush(heap, (i * 7919) % 10007)
        counts[(i * 2654435761) % 65521] = i
    while heap:
        heapq.heappop(heap)
    idx = table[:1 << 14] % table.size
    for _ in range(3):
        a = table[idx]
        s = np.sort(a)
        np.searchsorted(s, np.unique(a & 4095))
        idx = (idx * 31 + 7) % table.size


class RefClock:
    """Accumulates program CPU time (``cpu_s``) and the same time in
    reference-host seconds (``ref_s``) over the ticks of one run.

    ``tick`` takes and ignores any arguments, so the program can call it
    as its per-cell progress callback. With ``calibrate=False`` no
    kernel runs and ``ref_s == cpu_s`` (traced runs, whose spans must
    not include kernel time).
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.cpu_s = 0.0
        self.ref_s = 0.0
        self._kernel_s = CAL_REF_S
        self._mark = 0.0
        self._table = calibration_table() if calibrate else None

    def _time_kernel(self) -> float:
        if not self.calibrate:
            return CAL_REF_S
        start = time.process_time()
        calibration_kernel(self._table)
        return time.process_time() - start

    def start(self) -> None:
        self._kernel_s = self._time_kernel()
        self._mark = time.process_time()

    def tick(self, *_progress) -> None:
        stretch = time.process_time() - self._mark
        kernel_s = self._time_kernel()
        self.cpu_s += stretch
        self.ref_s += stretch * 2 * CAL_REF_S / (self._kernel_s + kernel_s)
        self._kernel_s = kernel_s
        self._mark = time.process_time()
