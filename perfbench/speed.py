"""Machine speed, sampled beside the work, so that host times read at
one reference speed.

On a shared machine the speed of one core drifts by tens of percent
within seconds and by up to twice within minutes, with the load of its
neighbours; the process's CPU time stretches with it.  A repetition
therefore runs a fixed pure-Python loop, a *slice*, at operation
boundaries, at most every ``GAP_S`` seconds.  An interval's busy time
(its process CPU time, at most its wall time) is scaled by
``REFERENCE_SLICE_S`` over the median CPU time of the slices nearest
before and after it; the rest of the interval, waiting, is kept as
measured::

    scaled = (wall - busy) + busy * REFERENCE_SLICE_S / local_slice

So a host time reads as it would on a runner whose slice takes
``REFERENCE_SLICE_S``, and a change to the program moves it as it
moves the raw time.  The slice is the benchmark's own code: no change
to the program changes it.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: iterations of the slice's loop
SLICE_ITERATIONS = 150_000
#: the slice's duration on the reference runner (a 2-core shared
#: virtual machine, Python 3.11.7, where it takes 13 to 19 ms)
REFERENCE_SLICE_S = 0.015
#: least wall time between two slices
GAP_S = 0.1
#: slices on each side of an interval that give its local speed
NEAR = 2


def slice_s():
    """Run the slice once; the CPU time it took on this thread (time the
    virtual CPU was taken away from the guest does not count, as it
    does not count in the busy time the slice is compared with)."""
    begin = time.thread_time()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - begin


class Probe:
    """Slices taken between a repetition's intervals."""

    def __init__(self):
        #: start and end of each slice, on the perf_counter clock, and
        #: its CPU time
        self.starts = []
        self.ends = []
        self.cpu = []

    def sample(self, force=False):
        """Take a slice if the last one ended ``GAP_S`` ago (or always,
        with *force*)."""
        if force or not self.ends or \
                time.perf_counter() - self.ends[-1] >= GAP_S:
            begin = time.perf_counter()
            self.cpu.append(slice_s())
            self.starts.append(begin)
            self.ends.append(time.perf_counter())

    def factor(self, start, end):
        """``REFERENCE_SLICE_S`` over the local slice duration around
        [start, end]: the median of the ``NEAR`` slices that ended last
        before it and the ``NEAR`` that started first after it (1.0 with
        no slice)."""
        before = bisect.bisect_right(self.ends, start)
        after = bisect.bisect_left(self.starts, end)
        near = list(range(max(0, before - NEAR), before)) + \
            list(range(after, min(len(self.starts), after + NEAR)))
        if not near:
            return 1.0
        return REFERENCE_SLICE_S / statistics.median(
            self.cpu[i] for i in near)

    def scale(self, start, end, busy):
        """The interval [start, end] with *busy* seconds of CPU time, read
        at the reference speed."""
        wall = end - start
        busy = min(max(busy, 0.0), wall)
        return wall - busy + busy * self.factor(start, end)
