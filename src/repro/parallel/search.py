"""Hybrid-parallelism configuration enumeration and grid search.

The paper bakes every system's configuration "through grid search"
(Section 6.4).  This module provides the shared enumeration machinery: which
(t, c, d, e, p, v, n) combinations are even worth evaluating for a given
model, cluster and workload, given the structural constraints the paper spells
out:

* TP, CP and EP stay within one NVLink domain (Section 6.1), and TP cannot
  exceed the number of attention heads (or KV groups, for the GQA models);
* the pipeline size must divide the layer count, and the virtual-stage count
  must divide the per-device layer count;
* the global batch (fixed tokens per iteration / context length) must split
  evenly over data-parallel replicas, and interleaved 1F1B additionally needs
  the per-replica microbatch count to be a multiple of the pipeline size —
  the scalability ceiling discussed in Section 6.4;
* expert parallelism must divide the expert count and reuses DP×CP ranks.

The resulting iterators are deliberately generous (the systems filter further
and the estimator rejects OOM configurations); they are shared by the three
system models and by the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from .config import ParallelConfig, WorkloadConfig

__all__ = [
    "SearchSpace",
    "divisors",
    "candidate_parallel_configs",
    "grid_search",
]


def divisors(value: int, ceiling: Optional[int] = None) -> List[int]:
    """Positive divisors of ``value`` (optionally capped at ``ceiling``).

    ``ceiling`` must be at least 1 when given: a zero or negative ceiling can
    only arise from a caller bug (an empty search dimension would silently
    produce "no-configuration" everywhere), so it is rejected loudly.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if ceiling is not None and ceiling < 1:
        raise ValueError(f"ceiling must be >= 1 when given, got {ceiling}")
    result = [d for d in range(1, value + 1) if value % d == 0]
    if ceiling is not None:
        result = [d for d in result if d <= ceiling]
    return result


@dataclass(frozen=True)
class SearchSpace:
    """Limits of the configuration enumeration.

    The defaults mirror the paper's deployment rules: intra-node groups of at
    most 8 GPUs, pipeline sizes up to 32, up to 8 virtual stages per device,
    SlimPipe slice counts of ``p`` to ``8 p``.
    """

    max_tensor_parallel: int = 8
    max_context_parallel: int = 16
    max_pipeline_parallel: int = 32
    max_virtual_stages: int = 8
    slice_multipliers: Tuple[int, ...] = (1, 2, 4, 8)
    require_interleave_divisibility: bool = False
    allow_cross_node_context_parallel: bool = True

    def __post_init__(self) -> None:
        for name in (
            "max_tensor_parallel",
            "max_context_parallel",
            "max_pipeline_parallel",
            "max_virtual_stages",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"SearchSpace.{name} must be >= 1, got {value}")
        if not self.slice_multipliers:
            raise ValueError("SearchSpace.slice_multipliers must not be empty")
        for multiplier in self.slice_multipliers:
            if multiplier < 1:
                raise ValueError(
                    f"SearchSpace.slice_multipliers must all be >= 1, got {multiplier}"
                )


def _tensor_parallel_options(
    model: ModelConfig, cluster: ClusterTopology, space: SearchSpace
) -> List[int]:
    limit = min(space.max_tensor_parallel, cluster.gpus_per_node, model.kv_groups)
    return [t for t in divisors(model.num_attention_heads, limit)]


def _context_parallel_options(
    cluster: ClusterTopology, space: SearchSpace, tensor_parallel: int
) -> List[int]:
    options = [1]
    c = 2
    while c <= space.max_context_parallel:
        within_node = tensor_parallel * c <= cluster.gpus_per_node
        if within_node or space.allow_cross_node_context_parallel:
            options.append(c)
        c *= 2
    return options


def candidate_parallel_configs(
    model: ModelConfig,
    cluster: ClusterTopology,
    workload: WorkloadConfig,
    space: SearchSpace = SearchSpace(),
    *,
    use_pipeline: bool = True,
    use_virtual_stages: bool = True,
    use_slices: bool = False,
    require_interleave_divisibility: Optional[bool] = None,
) -> Iterator[ParallelConfig]:
    """Enumerate structurally valid hybrid-parallelism configurations.

    ``use_slices`` additionally enumerates SlimPipe's ``n`` (as multiples of
    ``p``); ``require_interleave_divisibility`` enforces Megatron's
    ``m % p == 0`` rule for interleaved schedules when virtual stages are used.
    """
    total_gpus = cluster.total_gpus
    interleave_rule = (
        space.require_interleave_divisibility
        if require_interleave_divisibility is None
        else require_interleave_divisibility
    )
    for t in _tensor_parallel_options(model, cluster, space):
        for c in _context_parallel_options(cluster, space, t):
            if workload.sequence_length % c != 0:
                continue
            pipeline_options = (
                divisors(model.num_layers, space.max_pipeline_parallel)
                if use_pipeline
                else [1]
            )
            for p in pipeline_options:
                per_stage = t * c * p
                if per_stage > total_gpus or total_gpus % per_stage != 0:
                    continue
                d = total_gpus // per_stage
                if workload.global_batch_sequences % d != 0:
                    continue
                m = workload.global_batch_sequences // d
                if m < 1:
                    continue
                expert_options = (
                    [e for e in divisors(model.num_experts, cluster.gpus_per_node) if e <= d * c]
                    if model.is_moe
                    else [1]
                )
                layers_per_device = model.num_layers // p
                virtual_options = (
                    [v for v in divisors(layers_per_device, space.max_virtual_stages)]
                    if use_virtual_stages and p > 1
                    else [1]
                )
                for e in expert_options:
                    for v in virtual_options:
                        if v > 1 and interleave_rule and m % p != 0:
                            continue
                        if use_slices:
                            for mult in space.slice_multipliers:
                                n = p * mult
                                if workload.sequence_length // c < n:
                                    continue
                                yield ParallelConfig(
                                    tensor_parallel_size=t,
                                    context_parallel_size=c,
                                    data_parallel_size=d,
                                    expert_parallel_size=e,
                                    pipeline_parallel_size=p,
                                    virtual_pipeline_size=v,
                                    num_slices=n,
                                )
                        else:
                            yield ParallelConfig(
                                tensor_parallel_size=t,
                                context_parallel_size=c,
                                data_parallel_size=d,
                                expert_parallel_size=e,
                                pipeline_parallel_size=p,
                                virtual_pipeline_size=v,
                            )


def grid_search(
    candidates: Iterable[ParallelConfig],
    objective: Callable[[ParallelConfig], Optional[float]],
) -> Tuple[Optional[ParallelConfig], float]:
    """Pick the candidate maximising ``objective`` (``None`` = infeasible).

    Returns ``(best_config, best_value)``; ``(None, -inf)`` when every
    candidate is infeasible or the iterator is empty.
    """
    # The evaluate-and-keep-the-best loop lives in the sweep engine
    # (imported lazily: the sweep layer builds on the systems which build on
    # this module).
    from ..sweep.engine import argmax_stream

    return argmax_stream(candidates, objective)
