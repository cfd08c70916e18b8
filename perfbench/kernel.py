"""The reference kernel that puts every time on one scale.

The speed of a shared host drifts by a third within seconds, processor time
with it (the host's other tenants take the caches and the sibling hardware
threads, not the processor), so raw times of the same code spread by a
third from run to run.  worker.py runs this kernel, which does not use
effsim, before the first item of a pass, after every item and, from a
timer signal, every PROBE_S while an item runs; it takes the time the
probes spent out of the item's time and scales the rest by REFERENCE_S over
the mean of the kernel's times around and during the item.  The times it
reports are therefore seconds at the speed at which the kernel takes
REFERENCE_S: the median speed of a 2-core Intel Xeon virtual machine at
2.1 GHz with CPython 3.11.7.  The raw times are printed beside them.

The kernel does in small what effsim does most: it copy-conses a short
list, as the result lists grow; a long stack of tuples, which touches every
tuple's reference count, as the fused machines' stacks do; builds small
objects; and composes and calls closures, as continuations are.  No one of
these follows the host's drift in every item's time; together they follow
it in most, where any single one strays on some.
"""

import gc
import signal
import statistics
import time

REFERENCE_S = 0.0010
SAMPLES = 5
PROBE_S = 0.025


class _Pair:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second


_STACK = [("restore", i) for i in range(10_000)]


def kernel():
    xs = []
    for i in range(200):
        xs = xs + [i]
    stack = _STACK
    for i in range(4):
        stack = [("branch", i)] + stack
    cells = [_Pair(i, (i,)) for i in range(800)]
    k = lambda x: x
    for cell in cells:
        k = (lambda k, d: lambda x: k(x) + d)(k, cell.first) \
            if cell.first % 40 else (lambda x: x)
    k(0)


def _timed_kernel():
    """The kernel's time, with the garbage collector off so that the heap
    an item left does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate():
    """The kernel's median time over SAMPLES runs."""
    return statistics.median(_timed_kernel() for _ in range(SAMPLES))


class Probe:
    """Within `with Probe() as probe:`, run the kernel every PROBE_S from a
    SIGALRM handler, which Python runs in the main thread between two
    bytecodes of whatever runs there.  `samples` are the kernel's times,
    `spent` the seconds the handler took in all.  Probe(active=False) takes
    no samples."""

    def __init__(self, active=True):
        self.active = active
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # A signal raised before the timer stopped may still reach the
            # handler, so it stays installed and does nothing from now on.
            self.active = False

    def _sample(self, signum, frame):
        if not self.active or self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(_timed_kernel())
        except RecursionError:
            pass  # the item is within a few frames of the limit
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False


def scale(seconds, before, after, probed=()):
    """Seconds measured between two calibrations and during probes, at the
    reference speed.  The mean, not the median, of the kernel's times: the
    probes come at even steps of wall time, so their mean slows with the
    host where the item's time does, stalls included."""
    return seconds * REFERENCE_S / statistics.fmean([before, after, *probed])
