"""Host-speed calibration for timings taken on a shared machine.

On the shared 2-core reference box, the time of fixed work changed by up to
3x over seconds to minutes while the box's own CPUs had nothing else to
run: the host under it switched between a fast and a slow state.  Those
changes came from other tenants, not from smoothlab.  So each session times
a fixed kernel between requests, at most every INTERVAL_S, and each set-up
probe is timed between kernel samples.  The kernel is a mix of interpreter
and numpy work like the library's, and it does not call smoothlab, so a
change to smoothlab cannot change it.  Every time is multiplied by
REFERENCE_S / (interquartile mean of the kernel times over the same
period), which reports it in seconds at the reference host speed.  The raw
times and the kernel samples are kept in the run record.
"""

import statistics
import time

import numpy as np

#: Kernel size: a pure-Python loop, then sieve-like strided updates.  The
#: array is small (1 MiB) so that a sample adds little to the session's
#: peak RSS and evicts little of the caches between requests.
KERNEL_LOOPS = 100_000
KERNEL_ENTRIES = 1 << 17
KERNEL_REPEATS = 8
KERNEL_PRIMES = (2, 3, 5, 7, 11, 13)

#: Kernel time on the reference box at its usual speed.
REFERENCE_S = 0.010

#: A session times the kernel at most this often; that adds about 2 % to its wall time.
INTERVAL_S = 0.5


def kernel():
    """Seconds for a fixed mix of interpreter and numpy work like the library's.

    The array is made and freed inside the sample, so the kernel holds no
    memory between samples.
    """
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i
    for _ in range(KERNEL_REPEATS):
        work = np.arange(1, KERNEL_ENTRIES + 1, dtype=np.int64)
        for p in KERNEL_PRIMES:
            view = work[::p]
            view -= view // p
        del work, view
    return time.perf_counter() - start


def samples(n):
    """n kernel times, in seconds."""
    return [kernel() for _ in range(n)]


class Sampler:
    """Kernel samples taken at most every INTERVAL_S between units of work."""

    def __init__(self):
        self.at_s = [time.perf_counter()]
        self.samples = [kernel()]
        self.spent_s = 0.0  # wall time spent sampling after the first sample
        self._last = time.perf_counter()

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.at_s.append(now)
            self.samples.append(kernel())
            self._last = time.perf_counter()
            self.spent_s += self._last - now


def scale(samples):
    """Factor that turns raw seconds into seconds at the reference speed.

    It uses the mean of the middle half of the samples.  A sample that a
    short stall hit says little about the speed over the whole period, so
    the plain mean is too sensitive.  The host switches between a fast and
    a slow state, so the median is too, because it jumps between the states.
    """
    ordered = sorted(samples)
    k = len(ordered) // 4
    return REFERENCE_S / statistics.fmean(ordered[k : len(ordered) - k])
