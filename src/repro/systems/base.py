"""Training-system abstraction and the estimate record it produces.

A *training system* (Megatron-LM-like, DeepSpeed-like, SlimPipe) answers one
question for a given model, cluster and workload: **what is the best training
efficiency it can reach, with which hybrid-parallelism configuration, and does
it fit in memory at all?**  This is exactly what the paper's end-to-end
evaluation (Figures 2, 12, 13, 14, Table 4) compares, with each system's
configuration "baked through grid search" (Section 6.4).

Every system implements

* :meth:`TrainingSystem.candidate_configs` — the hybrid-parallelism
  configurations it is willing to consider, and
* :meth:`TrainingSystem.evaluate` — the analytic estimate (time, memory,
  recompute policy, MFU) for one configuration,

and inherits :meth:`TrainingSystem.best_configuration`, the grid search that
keeps the feasible estimate with the highest MFU.  A system may also
override :meth:`TrainingSystem.mfu_bound`, a sound upper bound on a
candidate's MFU that lets the search skip candidates that cannot win, and
:meth:`TrainingSystem.ranking_bound`, a cheaper and looser bound that ranks
candidates until the exact one is needed.  The
search shares one memoizing :class:`~repro.systems.estimator.AnalyticEstimator`
across its candidates (:meth:`TrainingSystem.estimator`); a direct
``evaluate`` call outside a search gets a fresh one.  Infeasibility is
reported the way the paper's Figure 12 annotates it: ``"oom"`` when configurations
exist but none fits memory, ``"no-configuration"`` when the search space is
empty (e.g. the batch is too small for the required data parallelism).
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.memory import RecomputeMode
from ..parallel.config import ParallelConfig, WorkloadConfig
from .estimator import AnalyticEstimator, EstimatorSettings

__all__ = ["SystemEstimate", "TrainingSystem", "INFEASIBLE_OOM", "INFEASIBLE_NO_CONFIG"]

INFEASIBLE_OOM = "oom"
INFEASIBLE_NO_CONFIG = "no-configuration"


@dataclass(frozen=True)
class SystemEstimate:
    """Outcome of evaluating (or grid-searching) one system on one workload.

    ``feasible`` is ``False`` when the system cannot run the workload; then
    ``reason`` is :data:`INFEASIBLE_OOM` or :data:`INFEASIBLE_NO_CONFIG` and
    the numeric fields are zero.
    """

    system: str
    feasible: bool
    reason: str = ""
    parallel: Optional[ParallelConfig] = None
    recompute: Optional[RecomputeMode] = None
    num_microbatches: int = 0
    iteration_time: float = 0.0
    mfu: float = 0.0
    peak_memory_bytes: float = 0.0
    bubble_fraction: float = 0.0
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def peak_memory_gib(self) -> float:
        return self.peak_memory_bytes / (1024**3)

    def describe(self) -> str:
        """One-line human-readable summary (used by examples and reports)."""
        if not self.feasible:
            return f"{self.system}: infeasible ({self.reason})"
        p = self.parallel
        assert p is not None
        cfg = f"t={p.t} c={p.c} d={p.d} e={p.e} p={p.p} v={p.v}"
        if p.num_slices:
            cfg += f" n={p.num_slices}"
        return (
            f"{self.system}: MFU {self.mfu * 100:.1f}%  "
            f"iter {self.iteration_time:.2f}s  mem {self.peak_memory_gib:.1f} GiB  "
            f"[{cfg}, recompute={self.recompute.value if self.recompute else '-'}]"
        )


def _infeasible(system: str, reason: str) -> SystemEstimate:
    return SystemEstimate(system=system, feasible=False, reason=reason)


class TrainingSystem(ABC):
    """Base class of the three systems compared in the evaluation."""

    #: Overridden by subclasses ("megatron-lm", "deepspeed", "slimpipe").
    name: str = "training-system"
    settings: EstimatorSettings = EstimatorSettings()
    #: The estimator of the grid search in progress (``None`` outside one).
    _search_estimator: Optional[AnalyticEstimator] = None

    # ------------------------------------------------------------------
    @abstractmethod
    def candidate_configs(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
    ) -> Iterable[ParallelConfig]:
        """Hybrid-parallelism configurations the system will consider."""

    @abstractmethod
    def evaluate(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> SystemEstimate:
        """Estimate time, memory and MFU of one configuration."""

    def mfu_bound(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> Optional[float]:
        """Upper bound on ``evaluate(...).mfu``; ``None`` when it must be infeasible.

        The grid search evaluates candidates in descending-bound order and
        stops once no bound can beat the incumbent, so an override must be
        sound: ``None`` only for a candidate ``evaluate`` reports as
        :data:`INFEASIBLE_OOM`, and otherwise never below the MFU of a
        feasible estimate.  The default never prunes.
        """
        return math.inf

    def ranking_bound(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> Optional[Tuple[float, Optional[Callable[[], float]]]]:
        """A bound to rank candidates by, and the step that tightens it to :meth:`mfu_bound`.

        ``None`` exactly when :meth:`mfu_bound` is ``None``; otherwise
        ``(bound, refine)`` with ``bound >= mfu_bound(...)`` and ``refine()``
        returning ``mfu_bound(...)``, or ``refine`` ``None`` when ``bound``
        already is it (the default).
        """
        bound = self.mfu_bound(model, cluster, workload, parallel)
        return None if bound is None else (bound, None)

    # ------------------------------------------------------------------
    def best_configuration(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
    ) -> SystemEstimate:
        """Grid search: the first feasible configuration with the highest MFU.

        Mirrors the paper's methodology ("their hybrid parallelism
        configurations are baked through grid search").  Candidates are
        evaluated in descending :meth:`mfu_bound` order until the next bound
        falls below the incumbent's MFU; an equal-MFU candidate replaces the
        incumbent only if it comes earlier in enumeration order, so the
        result equals the exhaustive first-max.  Nothing is pruned before a
        feasible incumbent exists, so the ``oom`` / ``no-configuration``
        outcome is the exhaustive one too.  The queue holds each candidate
        under its :meth:`ranking_bound` until it reaches the head, where it
        is refined and re-queued under its exact bound, so only candidates
        whose looser bound could still win pay for the exact one.  Every
        candidate is priced by one estimator, whose memo ends with the
        search.
        """
        best: Optional[SystemEstimate] = None
        best_index = -1
        saw_oom = False
        self._search_estimator = AnalyticEstimator(model, cluster, self.settings)
        try:
            queue = []
            for index, parallel in enumerate(self.candidate_configs(model, cluster, workload)):
                ranked = self.ranking_bound(model, cluster, workload, parallel)
                if ranked is None:
                    saw_oom = True
                else:
                    queue.append((-ranked[0], index, ranked[1], parallel))
            heapq.heapify(queue)
            while queue:
                negative_bound, index, refine, parallel = heapq.heappop(queue)
                if best is not None and -negative_bound < best.mfu:
                    break
                if refine is not None:
                    heapq.heappush(queue, (-refine(), index, None, parallel))
                    continue
                estimate = self.evaluate(model, cluster, workload, parallel)
                if not estimate.feasible:
                    saw_oom = saw_oom or estimate.reason == INFEASIBLE_OOM
                    continue
                if (
                    best is None
                    or estimate.mfu > best.mfu
                    or (estimate.mfu == best.mfu and index < best_index)
                ):
                    best, best_index = estimate, index
        finally:
            self._search_estimator = None
        if best is not None:
            return best
        if saw_oom:
            return _infeasible(self.name, INFEASIBLE_OOM)
        return _infeasible(self.name, INFEASIBLE_NO_CONFIG)

    # ------------------------------------------------------------------
    def estimator(self, model: ModelConfig, cluster: ClusterTopology) -> AnalyticEstimator:
        """The running search's estimator for (model, cluster), else a fresh one."""
        search = self._search_estimator
        if search is not None and search.model is model and search.cluster is cluster:
            return search
        return AnalyticEstimator(model, cluster, self.settings)

    def infeasible(self, reason: str) -> SystemEstimate:
        """Convenience for subclasses."""
        return _infeasible(self.name, reason)
