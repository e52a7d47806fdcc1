"""Clocks for timed blocks: plain wall-clock, and wall-clock adjusted for host speed.

The benchmark runs on shared hosts whose neighbours slow a CPU down by up
to ~1.8x for minutes at a time.  The slowdown hits process CPU time as much
as wall-clock, so no statistic over a run's own job times removes it: a run
that falls wholly inside a slow stretch is slow throughout.

:class:`AdjustedClock` measures the host's speed while the block runs.
Every ``INTERVAL_S`` an interval timer's ``SIGALRM`` handler times a fixed
pure-Python loop, in the block's own thread and so at its own speed.  The
block's seconds are its wall-clock minus the time spent in those probes,
scaled by ``REFERENCE_S`` over the mean probe time: seconds at the speed at
which the probe takes ``REFERENCE_S``, about its uncontended time on a
2.1 GHz Xeon vCPU under CPython 3.11.  The mean, not the median, of the
probes is used: probes are evenly spaced in wall-clock time, so their mean
follows the host's speed averaged over the block.  A change that makes the
program do more work moves the adjusted seconds as much as the wall-clock;
a neighbour that slows the host moves both the block and the probe, and
cancels out.
"""

import signal
import statistics
import time

#: Seconds between two probes (each costs ~1.5% of the block's wall-clock).
INTERVAL_S = 0.02
#: Probe loop iterations.
PROBE_LOOPS = 1500
#: Seconds one probe takes at reference speed.
REFERENCE_S = 1.8e-4


def _probe():
    """Seconds one pass of a fixed dict/float/list loop takes."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    recent = []
    for i in range(PROBE_LOOPS):
        key = i & 63
        table[key] = i * 1.5
        total += table[key]
        recent.append(total)
        if len(recent) > 32:
            recent.clear()
    return time.perf_counter() - start


class WallClock:
    """Times a ``with`` block; ``seconds`` and ``wall`` are its wall-clock."""

    seconds = wall = None

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = self.wall = time.perf_counter() - self._start
        return False


class AdjustedClock(WallClock):
    """Times a ``with`` block; ``seconds`` is adjusted for host speed.

    ``wall`` is the block's wall-clock (probes included) and ``slowdown``
    the mean probe time over ``REFERENCE_S``.  The probes run from
    ``SIGALRM``, so the block must not use that signal itself.
    """

    slowdown = None

    def _tick(self, signum, frame):
        self._probes.append((time.perf_counter(), _probe()))

    def __enter__(self):
        # One probe before the clock starts, so a block shorter than the
        # interval still has a speed sample.
        self._first = _probe()
        self._probes = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # A probe runs in this thread, so one that started before ``end``
        # also finished before it; one that started later is not in ``wall``.
        inside = [spent for started, spent in self._probes if started < end]
        self.wall = end - self._start
        self.slowdown = statistics.fmean([self._first] + inside) / REFERENCE_S
        self.seconds = (self.wall - sum(inside)) / self.slowdown
        return False
