"""Shared analytic estimator: compute, communication and memory building blocks.

The three training-system models (Megatron-LM-like, DeepSpeed-like, SlimPipe)
all price a configuration from the same ingredients:

* **compute** — per-device forward / backward / recompute time of one
  microbatch, derived from the FLOPs model and the GPU cost model, with the
  per-pass launch overhead and the arithmetic-intensity roll-off of short
  slices applied per computational unit;
* **communication** — alpha-beta costs of the collectives each parallelism
  dimension requires (tensor+sequence parallel all-gathers/reduce-scatters,
  context-parallel KV rings, expert-parallel all-to-alls, pipeline
  point-to-point, data-parallel gradient synchronisation, DeepSpeed-Ulysses
  all-to-alls and ZeRO parameter traffic);
* **memory** — model states after sharding, activation bytes per microbatch,
  fp32 loss logits, and the CUDA/NCCL reserve that is not available to the
  framework.

Every method documents the formula it implements so the system models stay
thin and auditable.

An estimator memoizes each per-configuration term on the
:class:`ParallelConfig` fields that term reads (``parallel_fields`` on the
method) plus its other arguments, so a grid search that shares one estimator
across its candidates prices each distinct term once.  The memo lives as long
as the estimator: the systems build one per search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Optional, Tuple

from ..constants import GIB, DType
from ..hardware.comm import CommModel
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.costs import CostModel, PassKind
from ..model.flops import (
    FlopsBreakdown,
    layer_forward_flops,
    model_flops_per_iteration,
    output_layer_flops,
)
from ..model.memory import (
    ADAM_MIXED_PRECISION,
    OptimizerSpec,
    RecomputeMode,
    activation_bytes_per_token_per_layer,
    logits_bytes_per_token,
    model_state_bytes_per_device,
)
from ..parallel.config import ParallelConfig

__all__ = ["EstimatorSettings", "AnalyticEstimator"]


@dataclass(frozen=True)
class EstimatorSettings:
    """Tunable assumptions shared by every system model.

    Attributes
    ----------
    memory_reserve_bytes:
        HBM set aside for the CUDA context, NCCL buffers and allocator
        fragmentation; not available for model states or activations.
    dp_exposed_fraction:
        Fraction of the data-parallel gradient synchronisation that cannot be
        overlapped with the backward pass.
    zero_exposed_fraction:
        Fraction of ZeRO-3 parameter gathering that is exposed (DeepSpeed
        prefetches aggressively, so most of it hides behind compute).
    activation_dtype:
        Datatype of stored activations.
    """

    memory_reserve_bytes: float = 6.0 * GIB
    dp_exposed_fraction: float = 0.5
    tp_exposed_fraction: float = 0.6
    zero_exposed_fraction: float = 0.35
    activation_dtype: DType = DType.BF16
    optimizer: OptimizerSpec = ADAM_MIXED_PRECISION


def _memoized(*parallel_fields: str):
    """Memoize an estimator term on ``parallel_fields`` and its other arguments.

    The term must read no :class:`ParallelConfig` field outside
    ``parallel_fields``; ``__wrapped__`` is the un-memoized term.
    """
    fields_of = attrgetter(*parallel_fields)

    def decorate(term):
        name = term.__name__

        @functools.wraps(term)
        def memoized(self, parallel: ParallelConfig, *args, **kwargs):
            key = (name, fields_of(parallel), args, tuple(kwargs.items()))
            try:
                return self._memo[key]
            except KeyError:
                value = self._memo[key] = term(self, parallel, *args, **kwargs)
                return value

        memoized.parallel_fields = parallel_fields
        return memoized

    return decorate


_T, _C, _D, _E, _P = (
    "tensor_parallel_size",
    "context_parallel_size",
    "data_parallel_size",
    "expert_parallel_size",
    "pipeline_parallel_size",
)


class AnalyticEstimator:
    """Compute / communication / memory arithmetic for one (model, cluster)."""

    def __init__(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        settings: EstimatorSettings = EstimatorSettings(),
    ):
        self.model = model
        self.cluster = cluster
        self.settings = settings
        self.cost_model = CostModel(cluster.gpu)
        self.comm = CommModel(cluster)
        self._memo: Dict[tuple, object] = {}

    # ==================================================================
    # Compute
    # ==================================================================
    def attention_share(self, sequence_length: int) -> float:
        """Fraction of one sequence's forward FLOPs spent in the attention core.

        Grows towards 1 as the context length grows (quadratic attention vs
        linear GEMMs) — the regime where ZB-V's imbalance bubbles explode and
        SlimPipe's bubble bound tightens (Section 2.2, Table 2 footnotes).
        """
        per_layer = layer_forward_flops(self.model, sequence_length)
        total = per_layer.total * self.model.num_layers
        if total <= 0:
            return 0.0
        return per_layer.attention * self.model.num_layers / total

    def _device_share_flops(
        self, parallel: ParallelConfig, sequence_length: int
    ) -> FlopsBreakdown:
        """Per-device transformer-layer FLOPs of one microbatch's forward.

        The full model's layer FLOPs divided by tensor, context and pipeline
        parallelism (the output layer is accounted separately).
        """
        per_layer = layer_forward_flops(self.model, sequence_length)
        total = per_layer * self.model.num_layers
        share = 1.0 / (
            parallel.tensor_parallel_size
            * parallel.context_parallel_size
            * parallel.pipeline_parallel_size
        )
        return total * share

    def microbatch_compute_seconds(
        self,
        parallel: ParallelConfig,
        sequence_length: int,
        recompute: RecomputeMode,
        passes_per_microbatch: int = 1,
        vocab_shards: int = 1,
        include_output_layer: bool = True,
        sequence_splits: Optional[int] = None,
    ) -> Tuple[float, float]:
        """(forward, backward) seconds of one microbatch on one pipeline device.

        ``passes_per_microbatch`` is the number of computational units the
        microbatch is split into on one device (``v`` for interleaved 1F1B,
        ``n*v`` for SlimPipe): each pass pays the kernel-launch overhead.
        ``sequence_splits`` is how many pieces the *sequence* is cut into
        (``n`` for the sliced schemes, 1 otherwise); it sets the token count
        of each pass and therefore the arithmetic-intensity roll-off that
        Figure 11 sweeps.  It defaults to ``passes_per_microbatch`` for
        backward compatibility with unsliced schedules.
        """
        if passes_per_microbatch < 1:
            raise ValueError("passes_per_microbatch must be >= 1")
        splits = sequence_splits if sequence_splits is not None else passes_per_microbatch
        if splits < 1:
            raise ValueError("sequence_splits must be >= 1")
        forward, backward = self.microbatch_kernel_seconds(
            parallel, sequence_length, recompute, vocab_shards, include_output_layer, splits
        )
        overhead = self.cost_model.gpu.kernel_launch_overhead * passes_per_microbatch
        return forward + overhead, backward + overhead

    @_memoized(_T, _C, _P)
    def microbatch_kernel_seconds(
        self,
        parallel: ParallelConfig,
        sequence_length: int,
        recompute: RecomputeMode,
        vocab_shards: int,
        include_output_layer: bool,
        sequence_splits: int,
    ) -> Tuple[float, float]:
        """(forward, backward) kernel seconds of one microbatch, launch overhead excluded.

        The pass count enters :meth:`microbatch_compute_seconds` only through
        the launch overhead added last, so this memo is shared by every pass
        count with the same sequence split.
        """
        flops = self._device_share_flops(parallel, sequence_length)
        tokens_per_pass = max(
            1.0,
            sequence_length / (parallel.context_parallel_size * sequence_splits),
        )

        forward = self.cost_model.time_of(
            flops, PassKind.FORWARD, tokens=tokens_per_pass, include_overhead=False
        )
        backward = self.cost_model.time_of(
            flops, PassKind.BACKWARD, tokens=tokens_per_pass, include_overhead=False
        )

        if recompute is RecomputeMode.FULL:
            backward += self.cost_model.time_of(
                flops, PassKind.FORWARD, tokens=tokens_per_pass, include_overhead=False
            )
        elif recompute is RecomputeMode.SELECTIVE:
            h = self.model.hidden_size
            ffn = self.model.ffn_hidden_size * self.model.active_experts
            tokens_per_device = sequence_length / parallel.context_parallel_size
            selective = FlopsBreakdown(
                linear=4.0
                * h
                * ffn
                * tokens_per_device
                * self.model.num_layers
                / (parallel.tensor_parallel_size * parallel.pipeline_parallel_size)
            )
            backward += self.cost_model.time_of(
                selective, PassKind.FORWARD, tokens=tokens_per_pass, include_overhead=False
            )

        if include_output_layer:
            out_flops = output_layer_flops(
                self.model, sequence_length // parallel.context_parallel_size
            ) * (1.0 / (parallel.tensor_parallel_size * vocab_shards))
            forward += self.cost_model.time_of(
                out_flops, PassKind.FORWARD, tokens=tokens_per_pass, include_overhead=False
            )
            backward += self.cost_model.time_of(
                out_flops, PassKind.BACKWARD, tokens=tokens_per_pass, include_overhead=False
            )
        return forward, backward

    def model_flops_per_iteration(
        self, sequence_length: int, num_sequences: int
    ) -> float:
        """MFU numerator: fundamental model FLOPs of one iteration."""
        return model_flops_per_iteration(self.model, sequence_length, num_sequences)

    # ==================================================================
    # Communication
    # ==================================================================
    def _intra_domain(self, size: int):
        return self.comm.domain(size, intra_node=self.cluster.fits_in_node(size))

    @_memoized(_T, _C, _P)
    def tp_comm_seconds_per_microbatch(
        self, parallel: ParallelConfig, sequence_length: int
    ) -> float:
        """Tensor+sequence-parallel collectives of one microbatch on one device.

        Megatron with SP performs, per layer, 2 all-gathers + 2
        reduce-scatters in the forward and the mirrored 4 in the backward,
        each moving a ``[seq/c, h]`` bf16 tensor.
        """
        t = parallel.tensor_parallel_size
        if t <= 1:
            return 0.0
        domain = self._intra_domain(t)
        seq_dev = sequence_length / parallel.context_parallel_size
        tensor_bytes = seq_dev * self.model.hidden_size * self.settings.activation_dtype.bytes
        per_layer = 4 * self.comm.all_gather_time(tensor_bytes, domain) + 4 * (
            self.comm.reduce_scatter_time(tensor_bytes, domain)
        )
        layers_per_device = self.model.num_layers / parallel.pipeline_parallel_size
        return self.settings.tp_exposed_fraction * per_layer * layers_per_device

    @_memoized(_T, _C, _P)
    def cp_comm_seconds_per_microbatch(
        self, parallel: ParallelConfig, sequence_length: int
    ) -> float:
        """Context-parallel (ring attention) KV exchange of one microbatch.

        Each device circulates the other ``c - 1`` ranks' key/value shards
        (forward) and their gradients (backward): ``≈ 3 x 2 x (c-1)/c`` of a
        ``[seq/c, 2 * kv_channels]`` tensor per layer.
        """
        c = parallel.context_parallel_size
        if c <= 1:
            return 0.0
        group = parallel.tensor_parallel_size * c
        intra = self.cluster.fits_in_node(group)
        seq_dev = sequence_length / c
        kv_bytes = (
            seq_dev
            * 2
            * self.model.kv_channels
            * self.settings.activation_dtype.bytes
            / parallel.tensor_parallel_size
        )
        volume = 3.0 * (c - 1) * kv_bytes
        layers_per_device = self.model.num_layers / parallel.pipeline_parallel_size
        return layers_per_device * self.comm.p2p_time(volume, intra_node=intra)

    @_memoized(_T, _C, _E, _P)
    def ep_comm_seconds_per_microbatch(
        self, parallel: ParallelConfig, sequence_length: int
    ) -> float:
        """Expert-parallel all-to-alls of one microbatch (MoE models only)."""
        e = parallel.expert_parallel_size
        if e <= 1 or not self.model.is_moe:
            return 0.0
        domain = self._intra_domain(min(e, self.cluster.gpus_per_node))
        seq_dev = sequence_length / parallel.context_parallel_size
        token_bytes = (
            seq_dev
            * self.model.hidden_size
            * self.settings.activation_dtype.bytes
            * self.model.experts_per_token
            / parallel.tensor_parallel_size
        )
        layers_per_device = self.model.num_layers / parallel.pipeline_parallel_size
        # 2 all-to-alls forward (dispatch + combine) and 2 backward.
        return 4 * layers_per_device * self.comm.all_to_all_time(token_bytes, domain)

    @_memoized(_T, _C, _D, _P)
    def pp_comm_seconds_per_microbatch(
        self, parallel: ParallelConfig, sequence_length: int, passes_per_microbatch: int = 1
    ) -> float:
        """Pipeline point-to-point activations of one microbatch on one device."""
        p = parallel.pipeline_parallel_size
        if p <= 1:
            return 0.0
        intra = self.cluster.fits_in_node(
            parallel.ranks_per_pipeline_stage * p
        )
        seq_dev = sequence_length / parallel.context_parallel_size
        boundary_bytes = (
            seq_dev
            * self.model.hidden_size
            * self.settings.activation_dtype.bytes
            / parallel.tensor_parallel_size
        )
        # One send + one receive per pass in forward and the same in backward;
        # the per-pass tensors are 1/passes of the boundary.
        per_pass = boundary_bytes / passes_per_microbatch
        return 4 * passes_per_microbatch * self.comm.p2p_time(per_pass, intra_node=intra)

    @_memoized(_T, _D, _E, _P)
    def dp_sync_seconds(self, parallel: ParallelConfig) -> float:
        """Exposed data-parallel gradient synchronisation per iteration.

        With a distributed optimizer this is a reduce-scatter of fp32
        gradients plus an all-gather of bf16 parameters over the DP group;
        most of it overlaps with the backward pass, the rest is exposed.
        """
        d = parallel.data_parallel_size
        if d <= 1:
            return 0.0
        params_per_device = self._params_per_device(parallel)
        domain = self.comm.domain(d, intra_node=False)
        volume = params_per_device * (4.0 + 2.0)  # fp32 grads + bf16 params
        full = self.comm.reduce_scatter_time(volume, domain)
        return full * self.settings.dp_exposed_fraction

    def ulysses_comm_seconds_per_microbatch(
        self, ulysses_size: int, sequence_length: int
    ) -> float:
        """DeepSpeed-Ulysses all-to-alls of one microbatch on one device.

        Ulysses re-shards between sequence- and head-partitioning around every
        attention call: 2 all-to-alls forward and 2 backward per layer, each
        moving the device's ``[seq/u, h]`` activations.
        """
        u = ulysses_size
        if u <= 1:
            return 0.0
        domain = self._intra_domain(min(u, self.cluster.gpus_per_node))
        tensor_bytes = (
            sequence_length / u * self.model.hidden_size * self.settings.activation_dtype.bytes
        )
        return 4 * self.model.num_layers * self.comm.all_to_all_time(tensor_bytes, domain)

    def zero3_param_traffic_seconds(self, shard_group_size: int) -> float:
        """Exposed ZeRO-3 parameter gathering + gradient reduction per iteration.

        Parameters are gathered for the forward and again for the backward
        (2 all-gathers of the bf16 parameters) and gradients are
        reduce-scattered once; prefetching hides most of it.
        """
        if shard_group_size <= 1:
            return 0.0
        domain = self.comm.domain(shard_group_size, intra_node=False)
        param_bytes = self.model.total_params() * 2.0
        full = 2 * self.comm.all_gather_time(param_bytes, domain) + self.comm.reduce_scatter_time(
            param_bytes * 2, domain
        )
        return full * self.settings.zero_exposed_fraction

    # ==================================================================
    # Memory
    # ==================================================================
    def usable_memory_bytes(self) -> float:
        """HBM available to model states + activations on one GPU."""
        return self.cluster.gpu.memory_bytes - self.settings.memory_reserve_bytes

    def _params_per_device(self, parallel: ParallelConfig) -> float:
        """Parameter count held by one device (TP / PP / EP sharding applied)."""
        dense_layer = (
            self.model.attention_params_per_layer() + self.model.norm_params_per_layer()
        )
        if self.model.is_moe:
            experts = 3 * self.model.hidden_size * self.model.ffn_hidden_size * self.model.num_experts
            mlp = experts / parallel.expert_parallel_size + self.model.hidden_size * self.model.num_experts
        else:
            mlp = self.model.mlp_params_per_layer()
        per_layer = dense_layer / parallel.tensor_parallel_size + mlp / parallel.tensor_parallel_size
        layers = self.model.num_layers / parallel.pipeline_parallel_size
        vocab = self.model.embedding_params() / parallel.tensor_parallel_size
        return layers * per_layer + vocab / parallel.pipeline_parallel_size

    @_memoized(_T, _D, _E, _P)
    def model_state_bytes(
        self, parallel: ParallelConfig, vocab_parallel: bool = False
    ) -> float:
        """Worst-case (over pipeline ranks) model-state bytes on one device."""
        worst = 0.0
        ranks = (
            range(parallel.pipeline_parallel_size)
            if parallel.pipeline_parallel_size <= 2
            else (0, parallel.pipeline_parallel_size - 1)
        )
        for rank in ranks:
            states = model_state_bytes_per_device(
                self.model,
                tensor_parallel_size=parallel.tensor_parallel_size,
                pipeline_parallel_size=parallel.pipeline_parallel_size,
                expert_parallel_size=parallel.expert_parallel_size,
                data_parallel_size=parallel.data_parallel_size,
                pipeline_rank=rank,
                vocab_parallel=vocab_parallel,
                optimizer=self.settings.optimizer,
            )
            worst = max(worst, states.total)
        return worst

    @_memoized(_T, _C)
    def microbatch_activation_bytes(
        self, parallel: ParallelConfig, sequence_length: int, recompute: RecomputeMode
    ) -> float:
        """Activation bytes of one microbatch across the *whole* model (``M_a``).

        This is the unit the Table 2 memory factors multiply; one pipeline
        device's share of one microbatch is ``M_a / p``.
        """
        per_token_layer = activation_bytes_per_token_per_layer(
            self.model,
            recompute=recompute,
            tensor_parallel_size=parallel.tensor_parallel_size,
            dtype=self.settings.activation_dtype,
        )
        tokens = sequence_length / parallel.context_parallel_size
        return per_token_layer * tokens * self.model.num_layers

    @_memoized(_T, _C)
    def loss_logits_bytes(
        self, parallel: ParallelConfig, sequence_length: int, vocab_shards: int = 1
    ) -> float:
        """fp32 logits stored for the loss on the device(s) holding the output layer."""
        tokens = sequence_length / parallel.context_parallel_size
        return tokens * logits_bytes_per_token(
            self.model,
            tensor_parallel_size=parallel.tensor_parallel_size,
            vocab_parallel_size=vocab_shards,
        )
