"""Interleaved fast/naive timing for the fast-forward speedup gates.

One timing per arm cannot tell a speedup from host noise: a single
descheduled run moves the ratio by tens of percent.  The gates therefore time
:data:`PAIRS` interleaved (fast, naive) pairs and read the median of the
per-pair ratios.  Fast runs first in every pair, so any process-global FLOPs
cache warm-up it pays for benefits the naive run after it — the ratio is
biased *against* the fast path.
"""

import statistics
import time
from typing import Any, Callable, List, NamedTuple

#: Interleaved (fast, naive) pairs per gate.
PAIRS = 5


class Speedup(NamedTuple):
    fast: Any  # the first pair's fast-path result
    naive: Any  # the first pair's naive-reference result
    fast_wall: float  # median over the pairs, seconds
    naive_wall: float
    ratios: List[float]  # naive / fast wall-clock, per pair
    ratio: float  # median of ``ratios``


def _timed(run: Callable[[], Any]):
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def interleaved_speedup(
    fast: Callable[[], Any], naive: Callable[[], Any], pairs: int = PAIRS
) -> Speedup:
    """Time ``pairs`` interleaved runs of both arms; see the module docstring."""
    runs = [(_timed(fast), _timed(naive)) for _ in range(pairs)]
    fast_walls = [fast_wall for (_, fast_wall), _ in runs]
    naive_walls = [naive_wall for _, (_, naive_wall) in runs]
    ratios = [n / max(f, 1e-9) for f, n in zip(fast_walls, naive_walls)]
    (first_fast, _), (first_naive, _) = runs[0]
    return Speedup(
        fast=first_fast,
        naive=first_naive,
        fast_wall=statistics.median(fast_walls),
        naive_wall=statistics.median(naive_walls),
        ratios=ratios,
        ratio=statistics.median(ratios),
    )
