"""Data generators for the paper's tables.

* Table 2 — the closed-form comparison of pipeline schemes;
* Table 3 — the model specifications (parameter counts);
* Table 4 — ultra-long-context training with activation offloading.

Each generator returns a :class:`~repro.analysis.report.Table`, like the
figure generators in :mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..constants import GIB, tokens_from_k
from ..hardware.topology import hopper_cluster
from ..model.config import (
    LLAMA_13B,
    LLAMA_70B,
    LLAMA_149B,
    MIXTRAL_8X7B,
    MIXTRAL_8X22B,
    ModelConfig,
)
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..schedules.formulas import (
    activation_memory_factor,
    available_schemes,
    bubble_fraction_estimate,
)
from ..systems import SlimPipeSystem, SystemEstimate
from .report import Column, Table

__all__ = [
    "table2_scheme_comparison",
    "table3_model_specifications",
    "Table4Config",
    "PAPER_TABLE4_CONFIGS",
    "table4_ultra_long_context",
]


# ===========================================================================
# Table 2
# ===========================================================================
def table2_scheme_comparison(
    pipeline_parallel_size: int = 8,
    num_microbatches: int = 8,
    num_slices: Optional[int] = None,
    virtual_stages: int = 2,
    attention_share: float = 0.5,
    schemes: Sequence[str] = None,
) -> Table:
    """Evaluate the Table 2 closed forms at a concrete operating point."""
    names = list(schemes) if schemes is not None else available_schemes()
    n = num_slices or 4 * pipeline_parallel_size
    rows = [
        {
            "scheme": scheme,
            "activation_memory_factor": activation_memory_factor(
                scheme, pipeline_parallel_size, num_microbatches, n, virtual_stages
            ),
            "bubble_fraction": bubble_fraction_estimate(
                scheme,
                pipeline_parallel_size,
                num_microbatches,
                n,
                virtual_stages,
                attention_share,
            ),
        }
        for scheme in names
    ]
    return Table(
        title="Table 2 — pipeline scheme comparison",
        columns=(
            Column("scheme", "scheme"),
            Column("activation memory (x M_a)", "activation_memory_factor", "{:.3f}"),
            Column("bubble fraction", "bubble_fraction", "{:.3f}"),
        ),
        rows=rows,
        golden=(("{scheme}.{}", ("activation_memory_factor", "bubble_fraction")),),
    )


# ===========================================================================
# Table 3
# ===========================================================================
def table3_model_specifications(
    models: Sequence[ModelConfig] = (
        LLAMA_13B,
        LLAMA_70B,
        LLAMA_149B,
        MIXTRAL_8X7B,
        MIXTRAL_8X22B,
    ),
) -> Table:
    """The Table 3 model zoo with parameter counts derived from the configs."""
    return Table(
        title="Table 3 — models used in evaluation",
        columns=(
            Column("model", "model"),
            Column("L", "num_layers"),
            Column("a", "num_heads"),
            Column("g", "num_groups", lambda r: str(r["num_groups"] or "-")),
            Column("h", "hidden_size"),
            Column("H", "ffn_size"),
            Column("params (B)", "params_billions", "{:.1f}"),
        ),
        rows=[
            {
                "model": m.name,
                "num_layers": m.num_layers,
                "num_heads": m.num_attention_heads,
                "num_groups": m.num_query_groups,
                "hidden_size": m.hidden_size,
                "ffn_size": m.ffn_hidden_size,
                "params_billions": m.total_params() / 1e9,
            }
            for m in models
        ],
        golden=(("{model}.{}", ("params_billions",)),),
    )


# ===========================================================================
# Table 4
# ===========================================================================
@dataclass(frozen=True)
class Table4Config:
    """One row of the paper's Table 4: the configuration it reports."""

    model: ModelConfig
    context_k: int
    tensor_parallel: int
    context_parallel: int
    expert_parallel: int
    data_parallel: int
    pipeline_parallel: int
    slices_per_pipeline: int  # n = slices_per_pipeline * p
    paper_offload_ratio: float
    paper_mfu: float


#: The exact configurations of Table 4 (16M tokens per iteration, <= 256 GPUs).
PAPER_TABLE4_CONFIGS: List[Table4Config] = [
    Table4Config(LLAMA_70B, 2048, 4, 4, 1, 1, 16, 4, 0.75, 0.450),
    Table4Config(LLAMA_149B, 1024, 4, 2, 1, 1, 32, 2, 0.80, 0.437),
    Table4Config(MIXTRAL_8X7B, 4096, 1, 16, 8, 1, 16, 4, 0.95, 0.400),
    Table4Config(MIXTRAL_8X22B, 2048, 1, 8, 8, 1, 28, 4, 1.00, 0.420),
]


def table4_ultra_long_context(
    configs: Sequence[Table4Config] = tuple(PAPER_TABLE4_CONFIGS),
    tokens_per_iteration: int = 16 * 1024 * 1024,
) -> Table:
    """Evaluate SlimPipe + offloading at the paper's Table 4 operating points.

    As in Section 6.5, selective checkpointing is enabled uniformly and the
    offload ratio is whatever the planner needs to fit device memory.
    """
    from ..model.memory import RecomputeMode

    rows = []
    for cfg in configs:
        seq = tokens_from_k(cfg.context_k)
        gpus = (
            cfg.tensor_parallel
            * cfg.context_parallel
            * cfg.data_parallel
            * cfg.pipeline_parallel
        )
        cluster = hopper_cluster(gpus, gpus_per_node=min(8, gpus))
        workload = WorkloadConfig(
            sequence_length=seq,
            tokens_per_iteration=max(tokens_per_iteration, seq),
        )
        parallel = ParallelConfig(
            tensor_parallel_size=cfg.tensor_parallel,
            context_parallel_size=cfg.context_parallel,
            expert_parallel_size=cfg.expert_parallel,
            data_parallel_size=cfg.data_parallel,
            pipeline_parallel_size=cfg.pipeline_parallel,
            num_slices=cfg.slices_per_pipeline * cfg.pipeline_parallel,
        )
        system = SlimPipeSystem(allow_offload=True)
        system.recompute_ladder = (RecomputeMode.SELECTIVE,)
        estimate: SystemEstimate = system.evaluate(cfg.model, cluster, workload, parallel)
        rows.append(
            {
                "model": cfg.model.name,
                "context_k": cfg.context_k,
                "feasible": estimate.feasible,
                "offload_ratio": float(estimate.details.get("offload_ratio", 0.0)),
                "mfu": estimate.mfu,
                "paper_offload_ratio": cfg.paper_offload_ratio,
                "paper_mfu": cfg.paper_mfu,
                "peak_memory_gib": estimate.peak_memory_bytes / GIB,
            }
        )
    return Table(
        title="Table 4 — ultra-long-context training with activation offloading",
        columns=(
            Column("model", "model"),
            Column("context", "context_k", "{}K"),
            Column(
                "offload (ours/paper)",
                "offload_ratio",
                lambda r: f"{r['offload_ratio']:.0%} / {r['paper_offload_ratio']:.0%}",
            ),
            Column(
                "MFU (ours/paper)",
                "mfu",
                lambda r: (
                    f"{r['mfu'] * 100:.1f}% / {r['paper_mfu'] * 100:.1f}%"
                    if r["feasible"]
                    else "OOM"
                ),
            ),
            Column("peak mem (GiB)", "peak_memory_gib", "{:.1f}"),
        ),
        rows=rows,
        golden=(("{model}.c{context_k}k.{}", ("feasible", "offload_ratio", "mfu")),),
    )
