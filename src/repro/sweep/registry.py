"""Named sweep specifications (the ``sweep run --name ...`` registry).

Each entry is a ready-to-run :class:`~repro.sweep.spec.SweepSpec` covering
one of the paper-scale grids:

``fig12``
    The end-to-end Figure 12 grid: model x GPU count x context length x
    training system, each cell a full hybrid-parallelism grid search.
``scheme-context``
    The Figures 13/14 sweep: every Table 2 pipeline scheme across context
    lengths at the fixed Section 6.6 operating point.
``serving``
    Every registered serving scenario under both deployments (the serving
    comparison table).
``fleet``
    Representative fleet scenarios under the load-oblivious and token-aware
    routers (the fleet comparison table's core grid).
``prefix-cache``
    The shared-prefix scenario families with prefix caching A/B'd on and
    off (the prefix-cache comparison table's grid).
"""

from __future__ import annotations

from typing import Dict, List

from ..constants import UnknownNameError
from ..schedules.formulas import PAPER_SCHEMES
from .spec import SweepSpec

__all__ = [
    "SWEEP_REGISTRY",
    "SERVING_SCENARIOS",
    "PREFIX_SCENARIOS",
    "TENANT_SCENARIOS",
    "FLEET_SCENARIOS",
    "get_sweep_spec",
    "available_sweeps",
]

#: The scenario sets the sweeps, goldens and comparison tables share.  Their
#: order is the order of every sweep point, golden and rendered row.
SERVING_SCENARIOS = (
    "chat",
    "rag-long-prompt",
    "summarize-512k",
    "bursty-long",
    "mixed-fleet",
    "shared-system-prompt",
    "rag-shared-corpus",
    "agentic-prefix-tree",
)
PREFIX_SCENARIOS = ("shared-system-prompt", "rag-shared-corpus", "agentic-prefix-tree")
TENANT_SCENARIOS = ("noisy-neighbour", "tenant-flash-crowd", "batch-backfill-under-interactive")
FLEET_SCENARIOS = ("steady-chat", "bursty-long", "unreliable")


SWEEP_REGISTRY: Dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec.make(
            name="fig12",
            evaluator="fig12-cell",
            axes={
                "model": ("llama-70b", "mixtral-8x7b"),
                "num_gpus": (128, 256),
                "sequence_k": (64, 128, 256, 512),
                "system": ("deepspeed", "megatron-lm", "slimpipe"),
            },
            base={"tokens_per_iteration": 4 * 1024 * 1024},
            description="end-to-end MFU grid (Figure 12): per-cell grid search",
        ),
        SweepSpec.make(
            name="scheme-context",
            evaluator="scheme-point",
            axes={
                "scheme": PAPER_SCHEMES,
                "sequence_k": (32, 64, 128, 256, 512),
            },
            base={
                "model": "llama-13b",
                "tensor_parallel": 8,
                "pipeline_parallel": 8,
                "batch_sequences": 4,
                "virtual_stages": 5,
                "slices_per_stage": 1,
            },
            description="PP scheme comparison across context lengths (Figures 13/14)",
        ),
        SweepSpec.make(
            name="serving",
            evaluator="serving-scenario",
            axes={
                "scenario": SERVING_SCENARIOS,
                "mode": ("colocated", "disaggregated"),
            },
            base={"seed": 0},
            description="serving scenarios under both deployments (TTFT/TPOT/goodput)",
        ),
        SweepSpec.make(
            name="fleet",
            evaluator="fleet-scenario",
            axes={
                "scenario": FLEET_SCENARIOS,
                "router": ("round-robin", "least-tokens"),
            },
            base={"seed": 0},
            description="fleet scenarios x routing policies (goodput/TTFT/GPU-hours)",
        ),
        SweepSpec.make(
            name="prefix-cache",
            evaluator="serving-scenario",
            axes={
                "scenario": PREFIX_SCENARIOS,
                "prefix_caching": (False, True),
            },
            base={"seed": 0, "mode": "colocated"},
            description="shared-prefix scenarios, caching A/B (TTFT/prefill-FLOPs saved)",
        ),
    )
}


def available_sweeps() -> List[str]:
    return sorted(SWEEP_REGISTRY)


def get_sweep_spec(name: str) -> SweepSpec:
    """Look up a named sweep, listing the valid names on a miss."""
    try:
        return SWEEP_REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown sweep {name!r}; available: {available_sweeps()}"
        ) from None
