"""DeepSpeed-like baseline: ZeRO-3 model-state sharding + Ulysses sequence parallelism.

The paper's third system (Section 6.4) runs without pipeline parallelism:

* **Ulysses parallelism (UP)** splits the sequence across ``u`` ranks and
  re-shards to head-parallel layout around every attention call with
  all-to-alls.  ``u`` cannot exceed the number of KV heads — for the GQA
  models that is 8 query groups, the scalability ceiling the paper points out
  ("It cannot enlarge the UP size because there are only 8 query groups").
* **ZeRO (stage-3-like)** shards parameters, gradients and optimizer states
  across the remaining data-parallel ranks; parameters are gathered layer by
  layer for the forward and backward passes.
* Every data-parallel replica must receive at least one whole sequence per
  iteration, so a fixed token budget with long sequences caps the usable DP
  size — the "no viable configuration" cases of Figure 12.

The estimate machinery mirrors the pipeline systems: choose the cheapest
recompute policy that fits memory, then price compute + Ulysses all-to-alls +
ZeRO parameter traffic analytically.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..model.memory import RecomputeMode, activation_bytes_per_token_per_layer
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..parallel.search import divisors
from .base import INFEASIBLE_NO_CONFIG, INFEASIBLE_OOM, SystemEstimate, TrainingSystem
from .estimator import EstimatorSettings

__all__ = ["DeepSpeedSystem"]

_RECOMPUTE_LADDER = (RecomputeMode.NONE, RecomputeMode.SELECTIVE, RecomputeMode.FULL)

#: Bytes per parameter of ZeRO-3-sharded model states (bf16 params + fp32
#: grads + fp32 master weights and Adam moments), divided by the shard group.
_ZERO_BYTES_PER_PARAM = 2.0 + 4.0 + 12.0


class DeepSpeedSystem(TrainingSystem):
    """ZeRO + Ulysses system model (the paper's DeepSpeed baseline)."""

    name = "deepspeed"

    def __init__(self, settings: EstimatorSettings = EstimatorSettings()):
        self.settings = settings

    # ------------------------------------------------------------------
    def candidate_configs(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
    ) -> Iterable[ParallelConfig]:
        """Enumerate Ulysses sizes; DP fills the remaining GPUs.

        The Ulysses size is carried in ``context_parallel_size`` (both split
        the sequence dimension); TP/PP stay at 1, which is how the paper runs
        DeepSpeed.
        """
        total = cluster.total_gpus
        head_limit = min(model.kv_groups, model.num_attention_heads)
        for u in divisors(model.num_attention_heads, head_limit):
            if total % u != 0:
                continue
            if workload.sequence_length % u != 0:
                continue
            d = total // u
            if workload.global_batch_sequences % d != 0:
                continue
            if workload.global_batch_sequences < d:
                continue
            yield ParallelConfig(
                tensor_parallel_size=1,
                context_parallel_size=u,
                data_parallel_size=d,
                expert_parallel_size=min(model.num_experts, d) if model.is_moe else 1,
                pipeline_parallel_size=1,
            )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        model: ModelConfig,
        cluster: ClusterTopology,
        workload: WorkloadConfig,
        parallel: ParallelConfig,
    ) -> SystemEstimate:
        estimator = self.estimator(model, cluster)
        usable = estimator.usable_memory_bytes()
        u = parallel.context_parallel_size
        d = parallel.data_parallel_size
        sequence = workload.sequence_length
        sequences_per_rank = workload.global_batch_sequences // d
        if sequences_per_rank < 1:
            return self.infeasible(INFEASIBLE_NO_CONFIG)

        # ---------------- memory ----------------
        zero_group = d
        model_states = model.total_params() * _ZERO_BYTES_PER_PARAM / zero_group
        # Working copy of a few gathered layers (double-buffered prefetch).
        model_states += 2 * model.params_per_layer() * 2.0

        chosen: Optional[RecomputeMode] = None
        activations = 0.0
        for recompute in _RECOMPUTE_LADDER:
            per_token_layer = activation_bytes_per_token_per_layer(
                model, recompute=recompute, tensor_parallel_size=1,
                dtype=self.settings.activation_dtype,
            )
            act = per_token_layer * (sequence / u) * model.num_layers
            logits = (sequence / u) * 4.0 * model.vocab_size
            if model_states + act + logits <= usable:
                chosen, activations = recompute, act + logits
                break
        if chosen is None:
            return self.infeasible(INFEASIBLE_OOM)

        # ---------------- timing ----------------
        forward, backward = estimator.microbatch_compute_seconds(
            parallel,
            sequence,
            chosen,
            passes_per_microbatch=1,
            vocab_shards=1,
        )
        ulysses = estimator.ulysses_comm_seconds_per_microbatch(u, sequence)
        ep_comm = estimator.ep_comm_seconds_per_microbatch(parallel, sequence)
        per_sequence = forward + backward + ulysses + ep_comm
        iteration_time = sequences_per_rank * per_sequence
        iteration_time += estimator.zero3_param_traffic_seconds(zero_group)

        flops = estimator.model_flops_per_iteration(
            workload.sequence_length, workload.global_batch_sequences
        )
        mfu = flops / (iteration_time * cluster.total_gpus * cluster.gpu.peak_flops)
        return SystemEstimate(
            system=self.name,
            feasible=True,
            parallel=parallel,
            recompute=chosen,
            num_microbatches=sequences_per_rank,
            iteration_time=iteration_time,
            mfu=mfu,
            peak_memory_bytes=model_states + activations,
            bubble_fraction=0.0,
            details={
                "ulysses_comm_per_sequence": ulysses,
                "zero_param_traffic": estimator.zero3_param_traffic_seconds(zero_group),
                "forward_per_sequence": forward,
                "backward_per_sequence": backward,
            },
        )
