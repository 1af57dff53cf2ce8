"""Timing corrected for the speed of a shared machine.

On a shared virtual machine the same code can run 30 to 90 per cent slower
while another tenant loads the physical core, in spells from a fraction of
a second to many seconds; the guest sees it as ordinary CPU time, not as
steal.  Identical operations then drift far beyond any useful bound.  The
benchmark therefore times a fixed reference kernel (interpreter work of the
kind the program does, and none of its code) right before and right after
every operation, and reports the operation's wall time scaled to the speed
at which the kernel takes REFERENCE_S seconds:

    reported = wall * REFERENCE_S / mean(kernel time before, kernel time after)

On an unloaded machine the factor is close to 1.  A change to the program
moves the wall time and not the kernel, so it moves the reported time by
the same share.  Timing the kernel next to each operation follows the
machine's fast changes of speed: on repeated identical solves it cut the
spread of log times from 0.25 (raw) to 0.10, where the median kernel time
over a one-second window left it at 0.17.  Raw wall times are printed next
to the scaled ones.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time

# Kernel time on the reference machine (2-core Intel Xeon VM at 2.0 GHz,
# Python 3.11.7) at full speed: its fastest tenth of 500 runs took 0.56 to
# 0.67 ms, the median 0.94 ms while the host was loaded.
REFERENCE_S = 0.58e-3
PROBE_REPEATS = 3


def reference_kernel() -> float:
    total = 0.0
    items = []
    for i in range(450):
        total += math.log(i + 1.5) * 0.5
        items.append((total % 7.0, i))
    heapq.heapify(items)
    while len(items) > 1:
        a, b = heapq.heappop(items), heapq.heappop(items)
        heapq.heappush(items, (a[0] + b[0], a[1]))
    return total


def kernel_time() -> float:
    """Median wall time of PROBE_REPEATS runs of the reference kernel."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Stopwatch:
    """Wall times of consecutive calls, with the kernel timed between them.

    The kernel runs when the stopwatch is made and after every call, so
    each call sits between two kernel times.  Read scaled() after the calls.
    """

    def __init__(self):
        self.walls: list[float] = []
        self._kernel: list[float] = [kernel_time()]

    def call(self, fn, *args):
        """Run fn(*args), recording its wall time."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.walls.append(time.perf_counter() - t0)
            self._kernel.append(kernel_time())

    def scaled(self) -> list[float]:
        """Every call's wall time at reference speed, in call order."""
        return [wall * 2.0 * REFERENCE_S / (before + after)
                for wall, before, after in zip(self.walls, self._kernel, self._kernel[1:])]
