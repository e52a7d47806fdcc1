"""Pipeline-parallel training systems: Megatron-LM-like and SlimPipe.

Both systems share the same skeleton — pick a hybrid-parallelism candidate,
choose the cheapest activation-recomputation policy that fits memory, price
the iteration analytically (compute + parallelism communication + pipeline
bubbles + data-parallel synchronisation) and report MFU — and differ exactly
where the paper says they differ:

==============================  =============================  =========================
aspect                          Megatron-LM (interleaved 1F1B)  SlimPipe
==============================  =============================  =========================
activation memory factor        ``1 + (p-1)/(v p)``             ``1/p + 2(p-1)/(n v p)``
bubble fraction                 ``(p-1)/(v m)``                 ``< (p-1)/(n v m)``
computational unit              one microbatch per stage        one sequence slice per stage
output layer / loss logits      last pipeline device            sharded over all devices
microbatch-count constraint     ``m % p == 0`` for ``v > 1``    none (works with ``m = 1``)
==============================  =============================  =========================

The SlimPipe system can additionally invoke the activation-offload planner
(Table 4) when even its thrifty activations exceed device memory.

Both price the iteration through one timing formula (``_timing``), which
also gives the grid search its MFU upper bound (``mfu_bound``): the same
timing at no recomputation and no offload overhead.  The search ranks
candidates by a cheaper, looser bound first (``ranking_bound``): the
compute alone, with no communication, bubble or DP synchronisation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Tuple

from ..core.offload import OffloadPlanner
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.memory import RecomputeMode
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..parallel.search import SearchSpace, candidate_parallel_configs
from ..schedules.formulas import activation_memory_factor, bubble_fraction_estimate
from .base import INFEASIBLE_OOM, SystemEstimate, TrainingSystem
from .estimator import AnalyticEstimator, EstimatorSettings

__all__ = ["MegatronSystem", "SlimPipeSystem", "SchemeSystem"]

#: Recomputation policies in order of preference (cheapest compute first).
_RECOMPUTE_LADDER = (RecomputeMode.NONE, RecomputeMode.SELECTIVE, RecomputeMode.FULL)


@dataclass(frozen=True)
class _MemoryBreakdown:
    model_states: float
    activations: float
    logits: float

    @property
    def total(self) -> float:
        return self.model_states + self.activations + self.logits


class _Timing(NamedTuple):
    forward: float
    backward: float
    comm: float
    attention_share: float
    bubble: float
    iteration_time: float
    mfu: float


class _PipelineSystem(TrainingSystem):
    """Shared machinery of the two pipeline-parallel systems."""

    #: Set by subclasses.
    scheme: str = ""
    vocab_parallel: bool = False

    def __init__(
        self,
        settings: EstimatorSettings = EstimatorSettings(),
        search_space: SearchSpace = SearchSpace(),
    ):
        self.settings = settings
        self.search_space = search_space
        #: Recomputation policies tried in order; subclasses may narrow this.
        self.recompute_ladder = _RECOMPUTE_LADDER

    # ------------------------------------------------------------------
    # Hooks the two systems specialise
    # ------------------------------------------------------------------
    def _num_slices(self, parallel: ParallelConfig) -> int:
        return 1

    def _passes_per_microbatch(self, parallel: ParallelConfig) -> int:
        return parallel.virtual_pipeline_size * self._num_slices(parallel)

    def _vocab_shards(self, parallel: ParallelConfig) -> int:
        return parallel.pipeline_parallel_size if self.vocab_parallel else 1

    def _activation_factor(self, parallel: ParallelConfig, num_microbatches: int) -> float:
        return activation_memory_factor(
            self.scheme,
            parallel.pipeline_parallel_size,
            num_microbatches,
            self._num_slices(parallel),
            parallel.virtual_pipeline_size,
        )

    def _bubble_fraction(
        self,
        parallel: ParallelConfig,
        num_microbatches: int,
        attention_share: float,
    ) -> float:
        return bubble_fraction_estimate(
            self.scheme,
            parallel.pipeline_parallel_size,
            num_microbatches,
            self._num_slices(parallel),
            parallel.virtual_pipeline_size,
            attention_share,
        )

    def _extra_comm_per_microbatch(
        self,
        estimator: AnalyticEstimator,
        parallel: ParallelConfig,
        sequence_length: int,
    ) -> float:
        """System-specific communication not covered by the shared terms."""
        return 0.0

    def _memory_rescue(
        self,
        estimator: AnalyticEstimator,
        parallel: ParallelConfig,
        workload: WorkloadConfig,
        memory: _MemoryBreakdown,
        compute_per_slice: float,
    ) -> Optional[Tuple[_MemoryBreakdown, float, dict]]:
        """Last-resort memory mechanism (offloading); ``None`` = give up."""
        return None

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidate_configs(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
    ) -> Iterable[ParallelConfig]:
        return candidate_parallel_configs(
            model,
            cluster,
            workload,
            self.search_space,
            use_pipeline=True,
            use_virtual_stages=True,
            use_slices=self.scheme == "slimpipe",
            require_interleave_divisibility=self.scheme == "interleaved-1f1b",
        )

    # ------------------------------------------------------------------
    # Evaluation of one configuration
    # ------------------------------------------------------------------
    def evaluate(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> SystemEstimate:
        try:
            parallel.validate_against_model(model)
            num_microbatches = workload.num_microbatches(parallel)
        except ValueError:
            return self.infeasible(INFEASIBLE_OOM)

        estimator = self.estimator(model, cluster)
        usable = estimator.usable_memory_bytes()
        vocab_shards = self._vocab_shards(parallel)
        model_states = estimator.model_state_bytes(parallel, vocab_parallel=self.vocab_parallel)

        chosen: Optional[RecomputeMode] = None
        memory: Optional[_MemoryBreakdown] = None
        for recompute in self.recompute_ladder:
            candidate = self._memory_breakdown(
                estimator, parallel, workload, recompute, model_states, vocab_shards, num_microbatches
            )
            if candidate.total <= usable:
                chosen, memory = recompute, candidate
                break

        offload_details: dict = {}
        offload_overhead = 0.0
        if chosen is None:
            # The paper's ultra-long-context path: selective checkpointing plus
            # PP-aware offloading (Section 6.5).  Only SlimPipe opts in.
            rescue_recompute = RecomputeMode.SELECTIVE
            candidate = self._memory_breakdown(
                estimator, parallel, workload, rescue_recompute, model_states, vocab_shards, num_microbatches
            )
            fwd_probe, bwd_probe = self._compute_seconds(
                estimator, workload, parallel, rescue_recompute
            )
            per_slice_compute = (fwd_probe + bwd_probe) / self._passes_per_microbatch(parallel)
            rescued = self._memory_rescue(
                estimator, parallel, workload, candidate, per_slice_compute
            )
            if rescued is None:
                return self.infeasible(INFEASIBLE_OOM)
            memory, offload_overhead, offload_details = rescued
            chosen = rescue_recompute
            if memory.total > usable:
                return self.infeasible(INFEASIBLE_OOM)

        assert memory is not None and chosen is not None
        timing = self._timing(
            estimator, workload, parallel, num_microbatches, chosen, offload_overhead
        )
        details = {
            "forward_per_microbatch": timing.forward,
            "backward_per_microbatch": timing.backward,
            "comm_per_microbatch": timing.comm,
            "attention_share": timing.attention_share,
            "model_state_bytes": memory.model_states,
            "activation_bytes": memory.activations,
            "logits_bytes": memory.logits,
            "offload_overhead": offload_overhead,
        }
        details.update(offload_details)
        return SystemEstimate(
            system=self.name,
            feasible=True,
            parallel=parallel,
            recompute=chosen,
            num_microbatches=num_microbatches,
            iteration_time=timing.iteration_time,
            mfu=timing.mfu,
            peak_memory_bytes=memory.total,
            bubble_fraction=timing.bubble,
            details=details,
        )

    def mfu_bound(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> Optional[float]:
        """MFU of the cheapest timing ``evaluate`` could price; ``None`` = infeasible.

        The timing at :attr:`RecomputeMode.NONE` with no offload overhead:
        every other rung only adds a non-negative recompute term to the
        backward time, and offloading only adds its exposed seconds, so by
        monotone IEEE rounding ``evaluate(...).mfu <= mfu_bound(...)``
        exactly.
        """
        ranked = self.ranking_bound(model, cluster, workload, parallel)
        return None if ranked is None else ranked[1]()

    def ranking_bound(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> Optional[Tuple[float, Callable[[], float]]]:
        """The MFU of ``m * (forward + backward)`` at no recomputation, and the exact bound.

        ``None`` when ``validate_against_model`` or ``num_microbatches``
        raises (``evaluate`` reports ``oom`` then), or when model states
        alone exceed the usable memory: every ladder rung's total adds
        non-negative activations and logits to them, and the offload
        rescue's budget ``usable - model_states - logits`` is then
        negative.  Otherwise the iteration time leaves out the
        communication, the bubble division and the DP sync of
        :meth:`_timing`, all non-negative, so by monotone IEEE rounding the
        bound is never below :meth:`mfu_bound`, which the returned step
        computes without repeating these checks.
        """
        try:
            parallel.validate_against_model(model)
            num_microbatches = workload.num_microbatches(parallel)
        except ValueError:
            return None
        estimator = self.estimator(model, cluster)
        model_states = estimator.model_state_bytes(parallel, vocab_parallel=self.vocab_parallel)
        if model_states > estimator.usable_memory_bytes():
            return None
        forward, backward = self._compute_seconds(
            estimator, workload, parallel, RecomputeMode.NONE
        )
        bound = self._mfu(estimator, workload, num_microbatches * (forward + backward))
        refine = functools.partial(
            self._exact_bound, estimator, workload, parallel, num_microbatches
        )
        return bound, refine

    def _exact_bound(
        self,
        estimator: AnalyticEstimator,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
        num_microbatches: int,
    ) -> float:
        return self._timing(
            estimator, workload, parallel, num_microbatches, RecomputeMode.NONE
        ).mfu

    def _compute_seconds(
        self,
        estimator: AnalyticEstimator,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
        recompute: RecomputeMode,
    ) -> Tuple[float, float]:
        """(forward, backward) seconds of one microbatch on one pipeline device."""
        return estimator.microbatch_compute_seconds(
            parallel,
            workload.microbatch_tokens(),
            recompute,
            passes_per_microbatch=self._passes_per_microbatch(parallel),
            vocab_shards=self._vocab_shards(parallel),
            sequence_splits=self._num_slices(parallel),
        )

    @staticmethod
    def _mfu(
        estimator: AnalyticEstimator, workload: WorkloadConfig, iteration_time: float
    ) -> float:
        flops = estimator.model_flops_per_iteration(
            workload.sequence_length, workload.global_batch_sequences
        )
        cluster = estimator.cluster
        return flops / (iteration_time * cluster.total_gpus * cluster.gpu.peak_flops)

    def _timing(
        self,
        estimator: AnalyticEstimator,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
        num_microbatches: int,
        recompute: RecomputeMode,
        offload_overhead: float = 0.0,
    ) -> _Timing:
        """Iteration time and MFU: compute + comm per microbatch, bubbles, DP sync."""
        sequence = workload.microbatch_tokens()
        passes = self._passes_per_microbatch(parallel)
        forward, backward = self._compute_seconds(estimator, workload, parallel, recompute)
        comm = (
            estimator.tp_comm_seconds_per_microbatch(parallel, sequence)
            + estimator.cp_comm_seconds_per_microbatch(parallel, sequence)
            + estimator.ep_comm_seconds_per_microbatch(parallel, sequence)
            + estimator.pp_comm_seconds_per_microbatch(parallel, sequence, passes)
            + self._extra_comm_per_microbatch(estimator, parallel, sequence)
        )
        work_per_microbatch = forward + backward + comm
        attention_share = estimator.attention_share(sequence)
        bubble = self._bubble_fraction(parallel, num_microbatches, attention_share)
        busy = num_microbatches * work_per_microbatch
        iteration_time = busy / max(1e-9, 1.0 - bubble)
        iteration_time += estimator.dp_sync_seconds(parallel)
        iteration_time += offload_overhead
        mfu = self._mfu(estimator, workload, iteration_time)
        return _Timing(forward, backward, comm, attention_share, bubble, iteration_time, mfu)

    # ------------------------------------------------------------------
    def _memory_breakdown(
        self,
        estimator: AnalyticEstimator,
        parallel: ParallelConfig,
        workload: WorkloadConfig,
        recompute: RecomputeMode,
        model_states: float,
        vocab_shards: int,
        num_microbatches: int,
    ) -> _MemoryBreakdown:
        sequence = workload.microbatch_tokens()
        m_a = estimator.microbatch_activation_bytes(parallel, sequence, recompute)
        factor = self._activation_factor(parallel, num_microbatches)
        activations = m_a * factor
        if recompute is RecomputeMode.FULL:
            # One layer block's worth of recomputed activations is transiently live.
            full_block = estimator.microbatch_activation_bytes(
                parallel, sequence, RecomputeMode.NONE
            ) / (self.model_blocks(parallel))
            activations += full_block / max(1, self._num_slices(parallel))
        logits = estimator.loss_logits_bytes(parallel, sequence, vocab_shards)
        if self._num_slices(parallel) > 1:
            # SlimPipe keeps logits only for the live slices of one microbatch.
            logits *= min(
                1.0,
                self._live_logit_slices(parallel) / self._num_slices(parallel),
            )
        return _MemoryBreakdown(
            model_states=model_states, activations=activations, logits=logits
        )

    def model_blocks(self, parallel: ParallelConfig) -> int:
        return parallel.total_stages

    def _live_logit_slices(self, parallel: ParallelConfig) -> int:
        return self._num_slices(parallel)


class SchemeSystem(_PipelineSystem):
    """A pipeline system driven by any of the Table 2 schemes by name.

    Used by the scheme-comparison experiments (Figures 2, 3, 13 and 14), where
    the parallelism is fixed by the experiment (e.g. 8-way TP, 8-way PP, full
    checkpointing) and only the pipeline schedule differs.  ``forced_recompute``
    pins the recomputation policy instead of letting the ladder choose, and
    ``num_slices`` applies to the sliced schemes (TeraPipe, SlimPipe).
    """

    def __init__(
        self,
        scheme: str,
        settings: EstimatorSettings = EstimatorSettings(),
        search_space: SearchSpace = SearchSpace(),
        forced_recompute: Optional[RecomputeMode] = None,
        num_slices: Optional[int] = None,
        vocab_parallel: Optional[bool] = None,
    ):
        super().__init__(settings, search_space)
        from ..schedules.formulas import SCHEME_FORMULAS  # local to avoid cycle at import

        if scheme not in SCHEME_FORMULAS:
            raise KeyError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.name = scheme
        self._slices_override = num_slices
        self.vocab_parallel = (
            vocab_parallel if vocab_parallel is not None else scheme == "slimpipe"
        )
        if forced_recompute is not None:
            self.recompute_ladder = (forced_recompute,)

    def _num_slices(self, parallel: ParallelConfig) -> int:
        from ..schedules.formulas import SCHEME_FORMULAS

        if not SCHEME_FORMULAS[self.scheme].uses_slices:
            return 1
        if self._slices_override is not None:
            return self._slices_override
        return parallel.num_slices or parallel.pipeline_parallel_size

    def candidate_configs(self, model, cluster, workload):
        from ..schedules.formulas import SCHEME_FORMULAS

        chars = SCHEME_FORMULAS[self.scheme]
        return candidate_parallel_configs(
            model,
            cluster,
            workload,
            self.search_space,
            use_pipeline=True,
            use_virtual_stages=chars.uses_virtual_stages,
            use_slices=chars.uses_slices,
            require_interleave_divisibility=self.scheme == "interleaved-1f1b",
        )

class MegatronSystem(_PipelineSystem):
    """Megatron-LM-like baseline: interleaved 1F1B + TP/SP + CP + EP + DP.

    The recompute ladder (none → selective → full) reproduces how the real
    system is driven in the paper's evaluation; the interleaved schedule's
    ``m % p == 0`` requirement limits scalability exactly as Section 6.4
    describes (candidates violating it fall back to plain 1F1B via ``v = 1``).
    """

    name = "megatron-lm"
    scheme = "interleaved-1f1b"
    vocab_parallel = False

    def _activation_factor(self, parallel: ParallelConfig, num_microbatches: int) -> float:
        scheme = "interleaved-1f1b" if parallel.virtual_pipeline_size > 1 else "1f1b"
        return activation_memory_factor(
            scheme,
            parallel.pipeline_parallel_size,
            num_microbatches,
            1,
            parallel.virtual_pipeline_size,
        )

    def _bubble_fraction(
        self, parallel: ParallelConfig, num_microbatches: int, attention_share: float
    ) -> float:
        scheme = "interleaved-1f1b" if parallel.virtual_pipeline_size > 1 else "1f1b"
        return bubble_fraction_estimate(
            scheme,
            parallel.pipeline_parallel_size,
            num_microbatches,
            1,
            parallel.virtual_pipeline_size,
            attention_share,
        )


class SlimPipeSystem(_PipelineSystem):
    """SlimPipe: slice-level 1F1B + context exchange + vocabulary parallelism.

    ``allow_offload`` additionally enables the PP-aware activation offloading
    of Section 6.5 as a last resort when even slice-level activations exceed
    memory — the mechanism behind Table 4's 2048K-4096K context lengths.
    """

    name = "slimpipe"
    scheme = "slimpipe"
    vocab_parallel = True

    def __init__(
        self,
        settings: EstimatorSettings = EstimatorSettings(),
        search_space: SearchSpace = SearchSpace(),
        allow_offload: bool = False,
        context_exchange: bool = True,
    ):
        super().__init__(settings, search_space)
        self.allow_offload = allow_offload
        self.context_exchange = context_exchange

    # ------------------------------------------------------------------
    def _num_slices(self, parallel: ParallelConfig) -> int:
        return parallel.num_slices or parallel.pipeline_parallel_size

    def _live_logit_slices(self, parallel: ParallelConfig) -> int:
        # At the last stage at most ~2(p-1)/v extra slices beyond one are live.
        return min(
            self._num_slices(parallel),
            1 + 2 * (parallel.pipeline_parallel_size - 1) // parallel.virtual_pipeline_size,
        )

    def _bubble_fraction(
        self, parallel: ParallelConfig, num_microbatches: int, attention_share: float
    ) -> float:
        bubble = super()._bubble_fraction(parallel, num_microbatches, attention_share)
        if not self.context_exchange:
            # Without context exchange the causal-attention imbalance adds
            # roughly half the attention time of the slice spread as idle time
            # (Figure 7); this is the ablation knob.
            imbalance = attention_share * (parallel.pipeline_parallel_size - 1) / (
                2.0 * self._num_slices(parallel)
            )
            bubble = min(0.95, bubble + imbalance)
        return bubble

    def _extra_comm_per_microbatch(
        self,
        estimator: AnalyticEstimator,
        parallel: ParallelConfig,
        sequence_length: int,
    ) -> float:
        # Early key-value exchange overlaps the context-exchange traffic with
        # compute (Section 5); the residual exposed cost is negligible and the
        # vocabulary-parallel broadcast is priced inside the output layer term.
        return 0.0

    def _memory_rescue(
        self,
        estimator: AnalyticEstimator,
        parallel: ParallelConfig,
        workload: WorkloadConfig,
        memory: _MemoryBreakdown,
        compute_per_slice: float,
    ):
        if not self.allow_offload:
            return None
        usable = estimator.usable_memory_bytes()
        budget = usable - memory.model_states - memory.logits
        if budget <= 0:
            return None
        planner = OffloadPlanner(estimator.cluster.gpu)
        slices = self._num_slices(parallel) * parallel.virtual_pipeline_size
        slice_bytes = memory.activations / max(1, slices)
        decision = planner.plan(
            peak_activation_bytes=memory.activations,
            budget_bytes=budget,
            slice_bytes=slice_bytes,
            slice_compute_seconds=compute_per_slice,
        )
        if not decision.feasible:
            return None
        rescued = _MemoryBreakdown(
            model_states=memory.model_states,
            activations=decision.resident_bytes,
            logits=memory.logits,
        )
        microbatches = workload.num_microbatches(parallel)
        overhead = decision.exposed_seconds_per_slice * slices * microbatches
        details = {"offload_ratio": decision.ratio}
        return rescued, overhead, details
