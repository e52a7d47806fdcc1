"""Model-driven cost and memory providers for the pipeline simulator.

The simulation engine and the memory tracker are deliberately agnostic about
*what* a pass costs; this module supplies the two concrete providers used
throughout the evaluation:

* :class:`ModelCostProvider` prices every pass of a schedule (baseline or
  SlimPipe) from the FLOPs model, the GPU cost model, and the communication
  model — including causal-attention asymmetry across slices, activation
  recomputation, the output-layer GEMM, SlimPipe's attention context
  exchange, and vocabulary parallelism;
* :class:`ModelActivationAccountant` does the same for bytes: per-pass stored
  activations (with the KV cache and the fp32 logits), transient
  recomputation buffers, and the per-device model-state base.

Both accept either microbatch-level passes (``slice_index is None``) or
slice-level passes, so one implementation serves every schedule compared in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.context_exchange import exchange_volume_per_microbatch
from ..core.slicing import SliceSpec, uniform_slices
from ..constants import DType
from ..hardware.comm import CommModel
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.costs import CostModel, PassKind
from ..model.flops import FlopsBreakdown, layer_forward_flops, output_layer_flops
from ..model.memory import (
    ADAM_MIXED_PRECISION,
    OptimizerSpec,
    RecomputeMode,
    activation_bytes_per_token_per_layer,
    kv_cache_bytes_per_token_per_layer,
    logits_bytes_per_token,
    model_state_bytes_per_device,
)
from ..parallel.config import ParallelConfig
from ..schedules.base import Pass, PipelineSchedule

__all__ = [
    "PipelineModelSpec",
    "ModelCostProvider",
    "ModelActivationAccountant",
    "spec_for_schedule",
]


@dataclass(frozen=True)
class PipelineModelSpec:
    """Everything the providers need to price one pipeline's schedule.

    Attributes
    ----------
    model:
        Transformer architecture.
    parallel:
        Hybrid-parallelism configuration (``t``, ``c``, ``p``, ``v`` …).
    sequence_length:
        Tokens of one microbatch's sequence *before* context parallelism.
    num_stages:
        Total pipeline stages of the schedule (``p * v``).
    num_slices:
        Slices per sequence (1 for microbatch-level schedules).
    recompute:
        Activation rematerialisation policy applied to every layer.
    context_exchange:
        Apply SlimPipe's attention context exchange (balances the attention
        cost across concurrently executing slices and adds the bounded
        exchange traffic of Eq. 2).
    vocab_parallel:
        Shard the output layer and its logits across pipeline devices.
    exchange_exposed_fraction:
        Fraction of the context-exchange traffic *not* hidden behind compute
        (0 with the early key-value exchange optimisation of Section 5, 1 in
        the ablation without it).
    dtype:
        Activation datatype.
    """

    model: ModelConfig
    parallel: ParallelConfig
    sequence_length: int
    num_stages: int
    num_slices: int = 1
    recompute: RecomputeMode = RecomputeMode.NONE
    context_exchange: bool = False
    vocab_parallel: bool = False
    exchange_exposed_fraction: float = 0.0
    dtype: DType = DType.BF16
    optimizer: OptimizerSpec = ADAM_MIXED_PRECISION

    def __post_init__(self) -> None:
        if self.sequence_length <= 0:
            raise ValueError("sequence_length must be positive")
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        if self.num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        if not 0.0 <= self.exchange_exposed_fraction <= 1.0:
            raise ValueError("exchange_exposed_fraction must be in [0, 1]")
        if self.model.num_layers % self.num_stages != 0:
            raise ValueError(
                f"{self.model.num_layers} layers are not divisible into "
                f"{self.num_stages} stages"
            )
        c = self.parallel.context_parallel_size
        if self.sequence_length % c != 0:
            raise ValueError(
                f"sequence length {self.sequence_length} not divisible by CP size {c}"
            )
        device_tokens = self.sequence_length // c
        if self.num_slices > device_tokens:
            raise ValueError(
                f"num_slices {self.num_slices} exceeds the {device_tokens} "
                f"per-device tokens (sequence {self.sequence_length} / CP size {c})"
            )
        # Uniform slicing fixes every slice up front, so ``slice_of`` is a lookup.
        object.__setattr__(
            self, "_slices", tuple(uniform_slices(device_tokens, self.num_slices))
        )
        object.__setattr__(
            self, "_whole_sequence", SliceSpec(index=0, start=0, length=device_tokens)
        )

    # ------------------------------------------------------------------
    @property
    def layers_per_stage(self) -> int:
        return self.model.num_layers // self.num_stages

    @property
    def device_sequence_length(self) -> int:
        """Per-device share of the sequence under context parallelism."""
        return self._whole_sequence.length

    def slices(self) -> List[SliceSpec]:
        """Uniform slices of the per-device sequence."""
        return list(self._slices)

    def slice_of(self, work: Pass) -> SliceSpec:
        """The sequence slice a pass operates on (whole sequence when unsliced)."""
        if work.slice_index is None:
            return self._whole_sequence
        return self._slices[work.slice_index]

    def is_last_stage(self, work: Pass) -> bool:
        return work.stage == self.num_stages - 1

    @property
    def vocab_shards(self) -> int:
        return self.parallel.pipeline_parallel_size if self.vocab_parallel else 1


class ModelCostProvider:
    """Price passes of a pipeline schedule in seconds.

    Implements the :class:`~repro.sim.engine.PassCostProvider` protocol.
    Every stage holds the same layers, so a pass's price depends only on its
    kind, its slice and whether it runs on the last stage (which adds the
    output layer): :meth:`duration` prices each such key once per provider,
    and :meth:`comm_delay` each consumer slice once.
    """

    def __init__(
        self,
        spec: PipelineModelSpec,
        cluster: ClusterTopology,
        cost_model: Optional[CostModel] = None,
        comm_model: Optional[CommModel] = None,
        include_pipeline_comm: bool = True,
    ):
        self.spec = spec
        self.cluster = cluster
        self.cost_model = cost_model or CostModel(cluster.gpu)
        self.comm_model = comm_model or CommModel(cluster)
        self.include_pipeline_comm = include_pipeline_comm
        self._pipeline_domain = self.comm_model.pipeline_domain(
            spec.parallel.pipeline_parallel_size, spec.parallel.ranks_per_pipeline_stage
        )
        self._slices = spec.slices()
        self._mean_attention_units = (
            sum(s.attention_units() for s in self._slices) / len(self._slices)
        )
        self._durations: Dict[Tuple[PassKind, Optional[int], bool], float] = {}
        self._comm_delays: Dict[Optional[int], float] = {}

    # ------------------------------------------------------------------
    # FLOPs of one pass
    # ------------------------------------------------------------------
    def _layer_flops(self, work: Pass) -> FlopsBreakdown:
        spec = self.spec
        sl = spec.slice_of(work)
        flops = layer_forward_flops(spec.model, sl.length, sl.kv_offset)
        if spec.context_exchange and work.slice_index is not None and len(self._slices) > 1:
            # Context exchange equalises the attention workload across the
            # concurrently executing slices; the per-microbatch total is
            # conserved, so each slice carries the mean attention cost
            # (Section 4.2.2: residual imbalance is at most one KV slice).
            own_units = sl.attention_units()
            if own_units > 0:
                scale = self._mean_attention_units / own_units
                flops = FlopsBreakdown(
                    linear=flops.linear, attention=flops.attention * scale
                )
        flops = flops * spec.layers_per_stage
        return flops * (1.0 / spec.parallel.tensor_parallel_size)

    def _output_layer_flops(self, work: Pass) -> FlopsBreakdown:
        spec = self.spec
        sl = spec.slice_of(work)
        flops = output_layer_flops(spec.model, sl.length)
        return flops * (
            1.0 / (spec.parallel.tensor_parallel_size * spec.vocab_shards)
        )

    def _recompute_flops(self, work: Pass) -> FlopsBreakdown:
        """Extra forward FLOPs re-executed during this backward pass."""
        spec = self.spec
        if spec.recompute is RecomputeMode.NONE:
            return FlopsBreakdown()
        sl = spec.slice_of(work)
        if spec.recompute is RecomputeMode.FULL:
            flops = layer_forward_flops(spec.model, sl.length, sl.kv_offset)
        else:  # SELECTIVE: re-run the gate and up projections (2 GEMMs) + SwiGLU
            h = spec.model.hidden_size
            ffn = spec.model.ffn_hidden_size * spec.model.active_experts
            flops = FlopsBreakdown(linear=4.0 * h * ffn * sl.length)
        flops = flops * spec.layers_per_stage
        return flops * (1.0 / spec.parallel.tensor_parallel_size)

    # ------------------------------------------------------------------
    # PassCostProvider protocol
    # ------------------------------------------------------------------
    def duration(self, work: Pass) -> float:
        key = (work.kind, work.slice_index, self.spec.is_last_stage(work))
        time = self._durations.get(key)
        if time is None:
            time = self._durations[key] = self._duration(work)
        return time

    def _duration(self, work: Pass) -> float:
        spec = self.spec
        sl = spec.slice_of(work)
        flops = self._layer_flops(work)
        time = self.cost_model.time_of(flops, work.kind, tokens=sl.length)

        if spec.is_last_stage(work):
            out_flops = self._output_layer_flops(work)
            time += self.cost_model.time_of(
                out_flops, work.kind, tokens=sl.length, include_overhead=False
            )
            if spec.vocab_parallel and spec.parallel.pipeline_parallel_size > 1:
                hidden_bytes = (
                    sl.length
                    * spec.model.hidden_size
                    * spec.dtype.bytes
                    / spec.parallel.tensor_parallel_size
                )
                time += self.comm_model.broadcast_time(hidden_bytes, self._pipeline_domain)
                time += self.comm_model.scalar_sync_time(self._pipeline_domain)

        if work.is_backward and spec.recompute is not RecomputeMode.NONE:
            recompute = self._recompute_flops(work)
            time += self.cost_model.time_of(
                recompute, PassKind.FORWARD, tokens=sl.length, include_overhead=False
            )

        if (
            spec.context_exchange
            and work.slice_index is not None
            and spec.parallel.pipeline_parallel_size > 1
            and spec.exchange_exposed_fraction > 0.0
        ):
            time += self._exposed_exchange_time(work)
        return time

    def _exposed_exchange_time(self, work: Pass) -> float:
        """Exchange traffic charged to this pass when not overlapped."""
        spec = self.spec
        per_microbatch = exchange_volume_per_microbatch(
            spec.model,
            spec.device_sequence_length,
            spec.num_slices,
            spec.parallel.pipeline_parallel_size,
            spec.parallel.tensor_parallel_size,
            spec.dtype,
        )
        # The volume formula already covers forward-pass traffic for all n
        # slices on one device; backward reuses the same buffers, so spread
        # the volume over the n forward + n backward slice passes equally.
        per_pass = per_microbatch / (2.0 * spec.num_slices * spec.parallel.virtual_pipeline_size)
        intra = spec.parallel.ranks_per_pipeline_stage < self.cluster.gpus_per_node
        time = self.comm_model.p2p_time(per_pass, intra_node=intra)
        return time * spec.exchange_exposed_fraction

    def comm_delay(self, producer: Pass, consumer: Pass) -> float:
        if not self.include_pipeline_comm or producer.device == consumer.device:
            return 0.0
        delay = self._comm_delays.get(consumer.slice_index)
        if delay is None:
            delay = self._comm_delays[consumer.slice_index] = self._boundary_delay(consumer)
        return delay

    def _boundary_delay(self, consumer: Pass) -> float:
        """Point-to-point time of the activation boundary ``consumer`` receives."""
        spec = self.spec
        sl = spec.slice_of(consumer)
        boundary_bytes = (
            sl.length
            * spec.model.hidden_size
            * spec.dtype.bytes
            / spec.parallel.tensor_parallel_size
        )
        intra = (
            spec.parallel.ranks_per_pipeline_stage * spec.parallel.pipeline_parallel_size
            <= self.cluster.gpus_per_node
        )
        return self.comm_model.p2p_time(boundary_bytes, intra_node=intra)


class ModelActivationAccountant:
    """Account stored / transient activation bytes for every pass.

    Implements the :class:`~repro.sim.memory_tracker.ActivationAccountant`
    protocol.  The fp32 logits of the loss are attributed to the last-stage
    forward pass (divided by the number of vocabulary shards when vocabulary
    parallelism is enabled).  Stored bytes are computed once per (slice,
    last stage) and transient bytes once per (kind, slice).
    """

    def __init__(
        self,
        spec: PipelineModelSpec,
        cluster: ClusterTopology,
        include_model_states: bool = True,
    ):
        self.spec = spec
        self.cluster = cluster
        self.include_model_states = include_model_states
        self._stored: Dict[Tuple[Optional[int], bool], float] = {}
        self._transient: Dict[Tuple[PassKind, Optional[int]], float] = {}

    # ------------------------------------------------------------------
    def _per_token_layer_bytes(self) -> float:
        spec = self.spec
        return activation_bytes_per_token_per_layer(
            spec.model,
            recompute=spec.recompute,
            tensor_parallel_size=spec.parallel.tensor_parallel_size,
            dtype=spec.dtype,
        )

    def _kv_bytes_per_token_layer(self) -> float:
        spec = self.spec
        return kv_cache_bytes_per_token_per_layer(
            spec.model,
            tensor_parallel_size=spec.parallel.tensor_parallel_size,
            dtype=spec.dtype,
        )

    def stored_bytes(self, work: Pass) -> float:
        if work.kind is not PassKind.FORWARD:
            return 0.0
        key = (work.slice_index, self.spec.is_last_stage(work))
        stored = self._stored.get(key)
        if stored is None:
            stored = self._stored[key] = self._stored_bytes(work)
        return stored

    def _stored_bytes(self, work: Pass) -> float:
        """Activation bytes a forward pass leaves stored until its backward."""
        spec = self.spec
        sl = spec.slice_of(work)
        per_layer = self._per_token_layer_bytes()
        stored = per_layer * spec.layers_per_stage * sl.length
        if spec.recompute is RecomputeMode.FULL and work.slice_index is not None:
            # Under full recomputation the saved activations no longer include
            # keys/values, but SlimPipe keeps the KV cache alive for later
            # slices (Section 4.1.2), so account it separately.
            stored += self._kv_bytes_per_token_layer() * spec.layers_per_stage * sl.length
        if spec.is_last_stage(work):
            stored += sl.length * logits_bytes_per_token(
                spec.model,
                tensor_parallel_size=spec.parallel.tensor_parallel_size,
                vocab_parallel_size=spec.vocab_shards,
            )
        return stored

    def transient_bytes(self, work: Pass) -> float:
        key = (work.kind, work.slice_index)
        transient = self._transient.get(key)
        if transient is None:
            transient = self._transient[key] = self._transient_bytes(work)
        return transient

    def _transient_bytes(self, work: Pass) -> float:
        spec = self.spec
        sl = spec.slice_of(work)
        if work.is_backward and spec.recompute is not RecomputeMode.NONE:
            # Recomputation materialises one layer block's worth of full
            # activations while the backward runs.
            full = activation_bytes_per_token_per_layer(
                spec.model,
                recompute=RecomputeMode.NONE,
                tensor_parallel_size=spec.parallel.tensor_parallel_size,
                dtype=spec.dtype,
            )
            return full * sl.length
        return 0.0

    def base_bytes(self, device: int) -> float:
        if not self.include_model_states:
            return 0.0
        spec = self.spec
        states = model_state_bytes_per_device(
            spec.model,
            tensor_parallel_size=spec.parallel.tensor_parallel_size,
            pipeline_parallel_size=spec.parallel.pipeline_parallel_size,
            expert_parallel_size=spec.parallel.expert_parallel_size,
            data_parallel_size=spec.parallel.data_parallel_size,
            pipeline_rank=device,
            vocab_parallel=spec.vocab_parallel,
            optimizer=spec.optimizer,
        )
        return states.total


def spec_for_schedule(
    schedule: PipelineSchedule,
    model: ModelConfig,
    parallel: ParallelConfig,
    sequence_length: int,
    **kwargs,
) -> PipelineModelSpec:
    """Convenience: build a :class:`PipelineModelSpec` matching a schedule's shape."""
    return PipelineModelSpec(
        model=model,
        parallel=parallel,
        sequence_length=sequence_length,
        num_stages=schedule.num_stages,
        num_slices=schedule.num_slices,
        **kwargs,
    )
