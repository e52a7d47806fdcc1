"""The sweep engine: expand, prune, memoize, fan out, collect.

:func:`run_sweep` turns a :class:`~repro.sweep.spec.SweepSpec` into a
:class:`SweepResult` in four stages:

1. **expand** the declarative spec into its grid of points;
2. **prune** points the evaluator's memory-model early-out can reject
   without running the expensive evaluation;
3. **memoize** — look the remaining points up in the on-disk
   :class:`~repro.sweep.cache.SweepCache` (keyed by a stable hash of the
   point and invalidated by the code-constants fingerprint);
4. **evaluate** the cache misses, either in-process (``workers <= 1``) or
   fanned out over a ``ProcessPoolExecutor`` with chunked dispatch so each
   worker amortises its warm-up (module imports, ``lru_cache`` fills) over
   many points.

The same module hosts :func:`argmax_stream`, the shared serial
"evaluate-and-keep-the-best" primitive that
:func:`repro.parallel.search.grid_search` and the system models' grid
searches reduce to.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from .cache import SweepCache
from .spec import Scalar, SweepSpec, point_key

if TYPE_CHECKING:
    from ..analysis.report import Table

__all__ = ["SweepStats", "SweepResult", "run_sweep", "argmax_stream"]

T = TypeVar("T")


def argmax_stream(
    items: Iterable[T],
    objective: Callable[[T], Optional[float]],
) -> Tuple[Optional[T], float]:
    """Evaluate ``objective`` over ``items`` and keep the best.

    ``None`` marks an infeasible item.  Returns ``(best_item, best_value)``,
    or ``(None, -inf)`` when every item is infeasible or the stream is empty.
    Ties keep the first item seen, so enumeration order is deterministic.
    """
    best_item: Optional[T] = None
    best_value = float("-inf")
    for item in items:
        value = objective(item)
        if value is None:
            continue
        if value > best_value:
            best_item, best_value = item, value
    return best_item, best_value


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepStats:
    """Where each point's result came from, plus the wall-clock cost."""

    total: int
    pruned: int
    cache_hits: int
    evaluated: int
    workers: int
    elapsed_seconds: float


@dataclass
class SweepResult:
    """Points and results of one sweep run, in expansion order."""

    spec: SweepSpec
    points: List[Dict[str, Scalar]]
    results: List[Dict[str, Scalar]]
    stats: SweepStats = field(
        default_factory=lambda: SweepStats(0, 0, 0, 0, 0, 0.0)
    )

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def metric_names(self) -> List[str]:
        """Union of result keys, sorted so cold and cached runs render alike."""
        names = set()
        for result in self.results:
            names.update(result)
        return sorted(names)

    def table(self) -> "Table":
        """The sweep as a :class:`~repro.analysis.report.Table`: axes, then metrics."""
        from ..analysis.report import Column, Table

        def fmt(value: Scalar) -> str:
            if isinstance(value, bool) or not isinstance(value, float):
                return str(value)
            return f"{value:.4g}"

        def column(name: str) -> Column:
            return Column(name, name, lambda row: fmt(row.get(name, "-")))

        s = self.stats
        return Table(
            title=(
                f"sweep {self.spec.name} — {s.total} points "
                f"({s.pruned} pruned, {s.cache_hits} cached, {s.evaluated} evaluated, "
                f"workers={s.workers}, {s.elapsed_seconds:.2f}s)"
            ),
            columns=[column(name) for name in self.spec.axis_names + self.metric_names()],
            rows=[{**result, **point} for point, result in self],
        )


# ---------------------------------------------------------------------------
# Worker entry point (module-level so ProcessPoolExecutor can pickle it)
# ---------------------------------------------------------------------------
def _evaluate_chunk(
    evaluator_name: str, points: List[Dict[str, Scalar]]
) -> List[Dict[str, Scalar]]:
    from .evaluators import get_evaluator

    evaluator = get_evaluator(evaluator_name)
    return [evaluator(point) for point in points]


def _chunked(items: List[T], chunk_size: int) -> List[List[T]]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    cache: Optional[SweepCache] = None,
    chunk_size: Optional[int] = None,
) -> SweepResult:
    """Run every point of ``spec`` and return the collected results.

    ``workers <= 1`` evaluates in-process (no pool overhead); larger values
    fan the cache-missing points out over that many worker processes in
    contiguous chunks (``chunk_size`` overrides the default of roughly four
    chunks per worker).  ``cache=None`` disables memoization entirely; pass a
    :class:`~repro.sweep.cache.SweepCache` to reuse and extend its entries.
    """
    from .evaluators import get_evaluator, get_pruner

    start = time.perf_counter()
    evaluator = get_evaluator(spec.evaluator)  # fail fast on unknown names
    pruner = get_pruner(spec.evaluator)
    points = spec.expand()
    results: List[Optional[Dict[str, Scalar]]] = [None] * len(points)

    # -------- prune --------------------------------------------------
    pruned = 0
    active_indices: List[int] = []
    for index, point in enumerate(points):
        verdict = pruner(point) if pruner is not None else None
        if verdict is not None:
            results[index] = verdict
            pruned += 1
        else:
            active_indices.append(index)

    # -------- memoize ------------------------------------------------
    cache_hits = 0
    pending: List[int] = []
    keys = {index: point_key(spec.evaluator, points[index]) for index in active_indices}
    cached = cache.load(spec) if cache is not None else {}
    for index in active_indices:
        hit = cached.get(keys[index])
        if hit is not None:
            results[index] = dict(hit)
            cache_hits += 1
        else:
            pending.append(index)

    # -------- evaluate -----------------------------------------------
    if pending:
        pending_points = [points[i] for i in pending]
        if workers <= 1:
            fresh = [evaluator(point) for point in pending_points]
        else:
            size = chunk_size or max(1, -(-len(pending_points) // (workers * 4)))
            chunks = _chunked(pending_points, size)
            with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
                futures = [
                    pool.submit(_evaluate_chunk, spec.evaluator, chunk)
                    for chunk in chunks
                ]
                fresh = [result for future in futures for result in future.result()]
        for index, result in zip(pending, fresh):
            results[index] = result
        if cache is not None:
            cache.store(
                spec, {keys[index]: results[index] for index in pending}
            )

    assert all(result is not None for result in results)
    stats = SweepStats(
        total=len(points),
        pruned=pruned,
        cache_hits=cache_hits,
        evaluated=len(pending),
        workers=workers,
        elapsed_seconds=time.perf_counter() - start,
    )
    return SweepResult(spec=spec, points=points, results=results, stats=stats)
