"""End-to-end SlimPipe execution planning.

:class:`SlimPipePlanner` assembles everything the rest of the repository
needs to *run* SlimPipe on a given (model, cluster, parallelism, workload)
point: the slice-level schedule, the model-driven cost provider, the memory
accountant, and — after simulation — the headline metrics (iteration time,
MFU, bubble fraction, per-device peak memory).  It is the programmatic
equivalent of launching one training iteration on the paper's cluster, and is
what the system models, the benchmarks and the examples build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..hardware.gpu import GPUSpec
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.costs import CostModel
from ..model.memory import RecomputeMode
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..schedules.base import PipelineSchedule
from ..sim.engine import SimulationEngine
from ..sim.memory_tracker import DeviceMemoryProfile, MemoryTracker
from ..sim.metrics import IterationMetrics, iteration_metrics
from ..sim.providers import (
    ModelActivationAccountant,
    ModelCostProvider,
    PipelineModelSpec,
)
from ..sim.timeline import Timeline
from .offload import OffloadDecision, OffloadPlanner
from .schedule import build_slimpipe_schedule

__all__ = ["SlimPipeOptions", "SlimPipeExecution", "SlimPipePlanner"]


@dataclass(frozen=True)
class SlimPipeOptions:
    """Feature toggles of a SlimPipe run (the paper's defaults are all on)."""

    context_exchange: bool = True
    vocab_parallel: bool = True
    early_kv_exchange: bool = True
    recompute: RecomputeMode = RecomputeMode.NONE
    offload_ratio: Optional[float] = None

    @property
    def exchange_exposed_fraction(self) -> float:
        """Exchange traffic left exposed when early KV exchange is disabled."""
        return 0.0 if self.early_kv_exchange else 1.0


@dataclass
class SlimPipeExecution:
    """Result of simulating one SlimPipe training iteration."""

    schedule: PipelineSchedule
    timeline: Timeline
    memory_profiles: List[DeviceMemoryProfile]
    metrics: IterationMetrics
    offload: Optional[OffloadDecision] = None
    spec: Optional[PipelineModelSpec] = None

    @property
    def iteration_time(self) -> float:
        return self.metrics.iteration_time

    @property
    def mfu(self) -> float:
        return self.metrics.mfu

    @property
    def peak_memory_bytes(self) -> float:
        return self.metrics.peak_memory_bytes


class SlimPipePlanner:
    """Plan and simulate SlimPipe iterations.

    Parameters
    ----------
    model, cluster, parallel, workload:
        The training point to plan for.  ``parallel.num_slices`` selects the
        number of slices per sequence (defaults to ``p`` when unset).
    options:
        SlimPipe feature toggles.
    """

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        parallel: ParallelConfig,
        workload: WorkloadConfig,
        options: SlimPipeOptions = SlimPipeOptions(),
    ):
        parallel.validate_against_model(model)
        self.model = model
        self.cluster = cluster
        self.parallel = parallel
        self.workload = workload
        self.options = options
        self.cost_model = CostModel(cluster.gpu)

    # ------------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        return self.parallel.num_slices or self.parallel.pipeline_parallel_size

    @property
    def num_microbatches(self) -> int:
        return self.workload.num_microbatches(self.parallel)

    def build_schedule(self) -> PipelineSchedule:
        """The slice-level 1F1B schedule for this configuration."""
        return build_slimpipe_schedule(
            num_devices=self.parallel.pipeline_parallel_size,
            num_microbatches=self.num_microbatches,
            num_slices=self.num_slices,
            num_stages_per_device=self.parallel.virtual_pipeline_size,
        )

    def build_spec(self) -> PipelineModelSpec:
        """The model/parallelism spec shared by the cost and memory providers."""
        return PipelineModelSpec(
            model=self.model,
            parallel=self.parallel,
            sequence_length=self.workload.microbatch_tokens(),
            num_stages=self.parallel.total_stages,
            num_slices=self.num_slices,
            recompute=self.options.recompute,
            context_exchange=self.options.context_exchange,
            vocab_parallel=self.options.vocab_parallel,
            exchange_exposed_fraction=self.options.exchange_exposed_fraction,
        )

    # ------------------------------------------------------------------
    def run(self) -> SlimPipeExecution:
        """Simulate one iteration and return timelines, memory and metrics."""
        schedule = self.build_schedule()
        spec = self.build_spec()
        costs = ModelCostProvider(spec, self.cluster, cost_model=self.cost_model)
        accountant = ModelActivationAccountant(spec, self.cluster)

        timeline = SimulationEngine(schedule, costs).run()
        profiles = MemoryTracker(schedule, accountant).profile()

        iteration_time = timeline.makespan
        offload_decision: Optional[OffloadDecision] = None
        peak_bytes = max(p.peak_bytes for p in profiles)

        if self.options.offload_ratio is not None:
            planner = OffloadPlanner(self.cluster.gpu)
            worst = max(profiles, key=lambda p: p.peak_bytes)
            budget = self.cluster.gpu.memory_bytes - worst.base_bytes
            slices = spec.slices()
            slice_bytes = worst.peak_activation_bytes / max(1, len(slices))
            slice_compute = iteration_time / max(1, schedule.total_passes())
            offload_decision = planner.plan(
                peak_activation_bytes=worst.peak_activation_bytes,
                budget_bytes=budget,
                slice_bytes=slice_bytes,
                slice_compute_seconds=slice_compute,
                ratio=self.options.offload_ratio,
            )
            peak_bytes = worst.base_bytes + offload_decision.resident_bytes
            exposed = offload_decision.exposed_seconds_per_slice * schedule.total_passes()
            iteration_time += exposed

        parallel = self.parallel
        metrics = iteration_metrics(
            self.model,
            self.cluster.gpu,
            self.workload.sequence_length,
            self.num_microbatches * self.workload.microbatch_sequences,
            parallel.tensor_parallel_size
            * parallel.context_parallel_size
            * parallel.pipeline_parallel_size,
            iteration_time,
            timeline.bubble_fraction(),
            peak_bytes,
        )
        return SlimPipeExecution(
            schedule=schedule,
            timeline=timeline,
            memory_profiles=profiles,
            metrics=metrics,
            offload=offload_decision,
            spec=spec,
        )

    # ------------------------------------------------------------------
    def gpu(self) -> GPUSpec:
        return self.cluster.gpu
