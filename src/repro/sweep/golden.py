"""Golden-metrics regression harness.

The classic systems-benchmark safety net: a registry of *golden definitions*
— named, fast-to-recompute flat dictionaries of headline metrics (the
figure/table numbers of the paper's evaluation and the serving scenarios'
SLO metrics) — pinned as JSON files under ``tests/goldens/`` and re-derived
on every test run.

A golden file stores the metrics, the tolerances they were recorded with and
the constants fingerprint of :func:`repro.sweep.cache.constants_fingerprint`
(GPU spec, estimator settings, model registry, scenario knobs — no source
text, so a refactor that moves no number re-stamps no golden).
:func:`check_golden` recomputes the definition and fails on

* any metric drifting outside ``max(atol, rtol * |reference|)``,
* metrics appearing or disappearing, or
* a fingerprint mismatch (a modelled constant changed — every number is
  suspect even if the sampled metrics happen to agree).

Regenerate after an intentional change with::

    python -m repro.cli sweep golden --regenerate

and commit the rewritten ``tests/goldens/*.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..constants import UnknownNameError
from .cache import constants_fingerprint
from .spec import Scalar

__all__ = [
    "GoldenDefinition",
    "GoldenCheck",
    "GOLDEN_REGISTRY",
    "available_goldens",
    "get_golden_definition",
    "goldens_dir",
    "golden_path",
    "record_golden",
    "record_all_goldens",
    "check_golden",
]

#: Environment variable overriding the golden directory.
GOLDENS_DIR_ENV = "REPRO_GOLDENS_DIR"

#: Default relative tolerance — the computations are deterministic, so the
#: tolerance only needs to absorb floating-point reassociation noise.
DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9


def goldens_dir() -> Path:
    """``tests/goldens`` of the repository (override with ``$REPRO_GOLDENS_DIR``)."""
    override = os.environ.get(GOLDENS_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


@dataclass(frozen=True)
class GoldenDefinition:
    """One pinned experiment: a name, a metric recomputation, tolerances."""

    name: str
    compute: Callable[[], Dict[str, Scalar]]
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    description: str = ""


@dataclass
class GoldenCheck:
    """Outcome of re-deriving one golden and diffing it against its file."""

    name: str
    ok: bool
    failures: List[str] = field(default_factory=list)

    def report(self) -> str:
        if self.ok:
            return f"golden {self.name}: ok"
        lines = [f"golden {self.name}: {len(self.failures)} failure(s)"] + [
            f"  - {failure}" for failure in self.failures
        ]
        lines.append(
            "  regenerate with `python -m repro.cli sweep golden --regenerate "
            f"{self.name}` if the change is intentional"
        )
        return "\n".join(lines)


GOLDEN_REGISTRY: Dict[str, GoldenDefinition] = {}


def _register(
    name: str, description: str = "", rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL
):
    def decorate(fn: Callable[[], Dict[str, Scalar]]):
        GOLDEN_REGISTRY[name] = GoldenDefinition(
            name=name, compute=fn, rtol=rtol, atol=atol, description=description
        )
        return fn

    return decorate


def available_goldens() -> List[str]:
    return sorted(GOLDEN_REGISTRY)


def get_golden_definition(name: str) -> GoldenDefinition:
    try:
        return GOLDEN_REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown golden {name!r}; available: {available_goldens()}"
        ) from None


# ===========================================================================
# Record / check
# ===========================================================================
def golden_path(name: str, directory: Optional[Union[str, Path]] = None) -> Path:
    return (Path(directory) if directory is not None else goldens_dir()) / f"{name}.json"


def record_golden(
    name: str,
    directory: Optional[Union[str, Path]] = None,
    definition: Optional[GoldenDefinition] = None,
) -> Path:
    """Recompute one golden and (re)write its JSON file."""
    definition = definition or get_golden_definition(name)
    payload = {
        "name": name,
        "description": definition.description,
        "fingerprint": constants_fingerprint(),
        "rtol": definition.rtol,
        "atol": definition.atol,
        "metrics": definition.compute(),
    }
    path = golden_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def record_all_goldens(
    names: Optional[Sequence[str]] = None,
    directory: Optional[Union[str, Path]] = None,
) -> List[Path]:
    return [
        record_golden(name, directory)
        for name in (names if names else available_goldens())
    ]


def _within(reference: float, value: float, rtol: float, atol: float) -> bool:
    return abs(value - reference) <= max(atol, rtol * abs(reference))


def check_golden(
    name: str,
    directory: Optional[Union[str, Path]] = None,
    definition: Optional[GoldenDefinition] = None,
) -> GoldenCheck:
    """Recompute one golden and diff it against its pinned file."""
    definition = definition or get_golden_definition(name)
    path = golden_path(name, directory)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        return GoldenCheck(
            name,
            ok=False,
            failures=[f"golden file {path} is missing; record it first"],
        )
    except ValueError as error:
        return GoldenCheck(name, ok=False, failures=[f"golden file {path} unreadable: {error}"])

    failures: List[str] = []
    if payload.get("fingerprint") != constants_fingerprint():
        failures.append(
            "constants fingerprint changed (a modelled constant was "
            "perturbed since this golden was recorded)"
        )
    reference: Dict[str, Scalar] = payload.get("metrics", {})
    rtol = float(payload.get("rtol", definition.rtol))
    atol = float(payload.get("atol", definition.atol))
    current = definition.compute()

    for key in sorted(set(reference) - set(current)):
        failures.append(f"metric {key!r} disappeared (was {reference[key]!r})")
    for key in sorted(set(current) - set(reference)):
        failures.append(f"new metric {key!r} = {current[key]!r} not in the golden")
    for key in sorted(set(reference) & set(current)):
        ref, got = reference[key], current[key]
        if isinstance(ref, bool) or isinstance(got, bool) or not (
            isinstance(ref, (int, float)) and isinstance(got, (int, float))
        ):
            if ref != got:
                failures.append(f"{key}: expected {ref!r}, got {got!r}")
        elif not _within(float(ref), float(got), rtol, atol):
            failures.append(
                f"{key}: expected {ref!r}, got {got!r} "
                f"(tolerance max({atol:g}, {rtol:g}*|ref|))"
            )
    return GoldenCheck(name, ok=not failures, failures=failures)


# ===========================================================================
# Golden definitions — the paper's headline numbers
# ===========================================================================
# Every compute function imports the analysis layer lazily: this module is
# imported by ``repro.sweep`` which the analysis layer itself builds on.
@_register("fig01", "memory footprint vs PP size (Llama 70B, 64K)")
def _golden_fig01() -> Dict[str, Scalar]:
    from ..analysis.figures import figure1_memory_footprint

    metrics: Dict[str, Scalar] = {}
    for row in figure1_memory_footprint().rows:
        prefix = f"p{row.pipeline_parallel_size}"
        metrics[f"{prefix}.model_state_gib"] = row.model_state_gib
        metrics[f"{prefix}.classic_activation_gib"] = row.classic_activation_gib
        metrics[f"{prefix}.slimpipe_activation_gib"] = row.slimpipe_activation_gib
    return metrics


@_register("fig02", "maximum context length per PP scheme (Llama 13B)")
def _golden_fig02() -> Dict[str, Scalar]:
    from ..analysis.figures import figure2_max_context

    return {
        f"{row.scheme}.max_context_k": row.max_context_k
        for row in figure2_max_context().rows
    }


@_register("fig03", "theoretical bubble fractions per scheme")
def _golden_fig03() -> Dict[str, Scalar]:
    from ..analysis.figures import figure3_bubble_fractions

    return {
        f"{row.scheme}.bubble_fraction": row.bubble_fraction
        for row in figure3_bubble_fractions().rows
    }


def _schedule_structure_metrics(result) -> Dict[str, Scalar]:
    metrics: Dict[str, Scalar] = {
        "accumulated_fraction": result.accumulated_fraction_of_microbatch,
        "total_warmup_units": sum(result.warmup_units),
        "peak_activation_units_max": max(result.peak_activation_units),
    }
    for device, units in enumerate(result.warmup_units):
        metrics[f"warmup_units.dev{device}"] = units
    return metrics


@_register("fig04", "SlimPipe schedule structure (p=4, m=3, n=8)")
def _golden_fig04() -> Dict[str, Scalar]:
    from ..analysis.figures import figure4_schedule_structure

    return _schedule_structure_metrics(figure4_schedule_structure())


@_register("fig05", "interleaved SlimPipe schedule structure (p=4, m=2, n=8, v=2)")
def _golden_fig05() -> Dict[str, Scalar]:
    from ..analysis.figures import figure5_interleaved_schedule

    return _schedule_structure_metrics(figure5_interleaved_schedule())


@_register("fig06", "activation memory and bubbles vs number of slices")
def _golden_fig06() -> Dict[str, Scalar]:
    from ..analysis.figures import figure6_slices_sweep

    result = figure6_slices_sweep()
    metrics: Dict[str, Scalar] = {}
    for row in result.activation_rows:
        metrics[f"activation.p{row.pipeline_parallel_size}.n{row.num_slices}"] = (
            row.activation_fraction
        )
    for row in result.bubble_rows:
        metrics[f"bubble.m{row.num_microbatches}.n{row.num_slices}"] = row.bubble_fraction
    return metrics


@_register("fig07", "imbalance bubbles with / without context exchange")
def _golden_fig07() -> Dict[str, Scalar]:
    from ..analysis.figures import figure7_imbalance_bubbles

    result = figure7_imbalance_bubbles()
    return {
        "bubble_without_exchange": result.bubble_without_exchange,
        "bubble_with_exchange": result.bubble_with_exchange,
        "makespan_without_exchange": result.makespan_without_exchange,
        "makespan_with_exchange": result.makespan_with_exchange,
    }


@_register("fig08", "context-exchange rebalancing plan")
def _golden_fig08() -> Dict[str, Scalar]:
    from ..analysis.figures import figure8_context_exchange_plan

    result = figure8_context_exchange_plan()
    return {
        "num_transfers": result.num_transfers,
        "max_imbalance_before": result.max_imbalance_before,
        "max_imbalance_after": result.max_imbalance_after,
    }


@_register("fig09", "output-layer bubble with / without vocabulary parallelism")
def _golden_fig09() -> Dict[str, Scalar]:
    from ..analysis.figures import figure9_vocab_parallel_bubble

    result = figure9_vocab_parallel_bubble()
    return {
        "makespan_last_device_gemm": result.makespan_last_device_gemm,
        "makespan_vocab_parallel": result.makespan_vocab_parallel,
        "bubble_last_device_gemm": result.bubble_last_device_gemm,
        "bubble_vocab_parallel": result.bubble_vocab_parallel,
        "speedup": result.speedup,
    }


@_register("fig10", "memory scaling vs PP size (32K slice of the grid)")
def _golden_fig10() -> Dict[str, Scalar]:
    from ..analysis.figures import figure10_memory_scaling

    metrics: Dict[str, Scalar] = {}
    # The full grid takes several seconds; the 32K column with two pipeline
    # sizes pins the same code paths at a fraction of the cost.
    for row in figure10_memory_scaling(sequence_ks=(32,), pipeline_sizes=(2, 4)).rows:
        prefix = f"s{row.sequence_k}k.p{row.pipeline_parallel_size}"
        metrics[f"{prefix}.first_device_gib"] = row.first_device_gib
        metrics[f"{prefix}.last_device_gib"] = row.last_device_gib
        metrics[f"{prefix}.theoretical_gib"] = row.theoretical_gib
    return metrics


@_register("fig11", "MFU vs number of slices")
def _golden_fig11() -> Dict[str, Scalar]:
    from ..analysis.figures import figure11_mfu_vs_slices

    result = figure11_mfu_vs_slices()
    metrics: Dict[str, Scalar] = {
        f"s{row.sequence_k}k.n{row.num_slices}.mfu": row.mfu for row in result.rows
    }
    for seq_k in (128, 256, 512):
        metrics[f"s{seq_k}k.best_slices"] = result.best_slices(seq_k)
    return metrics


@_register("fig12", "end-to-end MFU headline cells (Llama 70B, 128 GPUs)")
def _golden_fig12() -> Dict[str, Scalar]:
    from ..analysis.figures import figure12_end_to_end
    from ..model.config import LLAMA_70B

    result = figure12_end_to_end(
        models=(LLAMA_70B,), gpu_counts=(128,), sequence_ks=(64, 256)
    )
    metrics: Dict[str, Scalar] = {}
    for cell in result.cells:
        prefix = f"s{cell.sequence_k}k.{cell.system}"
        metrics[f"{prefix}.feasible"] = cell.feasible
        metrics[f"{prefix}.mfu"] = cell.mfu
    for seq_k in (64, 256):
        speedup = result.speedup_over_megatron("llama-70b", 128, seq_k)
        metrics[f"s{seq_k}k.speedup_over_megatron"] = speedup
    return metrics


def _scheme_sweep_metrics(attr: str) -> Dict[str, Scalar]:
    from ..analysis.figures import scheme_context_sweep

    metrics: Dict[str, Scalar] = {}
    for row in scheme_context_sweep(sequence_ks=(64, 256)).rows:
        prefix = f"{row.scheme}.s{row.sequence_k}k"
        metrics[f"{prefix}.feasible"] = row.feasible
        metrics[f"{prefix}.{attr}"] = getattr(row, attr)
    return metrics


@_register("fig13", "scheme MFU across context lengths")
def _golden_fig13() -> Dict[str, Scalar]:
    return _scheme_sweep_metrics("mfu")


@_register("fig14", "scheme peak memory across context lengths")
def _golden_fig14() -> Dict[str, Scalar]:
    return _scheme_sweep_metrics("peak_memory_gib")


@_register("tab02", "closed-form scheme comparison at the Table 2 point")
def _golden_tab02() -> Dict[str, Scalar]:
    from ..analysis.tables import table2_scheme_comparison

    metrics: Dict[str, Scalar] = {}
    for row in table2_scheme_comparison():
        metrics[f"{row.scheme}.activation_memory_factor"] = row.activation_memory_factor
        metrics[f"{row.scheme}.bubble_fraction"] = row.bubble_fraction
    return metrics


@_register("tab03", "model parameter counts (Table 3)")
def _golden_tab03() -> Dict[str, Scalar]:
    from ..analysis.tables import table3_model_specifications

    return {
        f"{row.model}.params_billions": row.params_billions
        for row in table3_model_specifications()
    }


@_register("tab04", "ultra-long-context offloading (Table 4)")
def _golden_tab04() -> Dict[str, Scalar]:
    from ..analysis.tables import table4_ultra_long_context

    metrics: Dict[str, Scalar] = {}
    for row in table4_ultra_long_context():
        prefix = f"{row.model}.c{row.context_k}k"
        metrics[f"{prefix}.feasible"] = row.feasible
        metrics[f"{prefix}.offload_ratio"] = row.offload_ratio
        metrics[f"{prefix}.mfu"] = row.mfu
    return metrics


# ---------------------------------------------------------------------------
# Serving scenarios: TTFT / TPOT / goodput under both deployments, generated
# through the sweep engine itself (no cache — goldens must recompute).
# ---------------------------------------------------------------------------
_SERVING_GOLDEN_METRICS = (
    "ttft_p50",
    "ttft_p99",
    "tpot_p50",
    "tpot_p95",
    "tpot_p99",
    "goodput_fraction",
    "goodput_rps",
    "preemptions",
)


def _serving_golden(scenario: str) -> Dict[str, Scalar]:
    from .engine import run_sweep
    from .spec import SweepSpec

    spec = SweepSpec.make(
        name=f"golden-serving-{scenario}",
        evaluator="serving-scenario",
        axes={"mode": ("colocated", "disaggregated")},
        base={"scenario": scenario, "seed": 0},
    )
    result = run_sweep(spec)
    metrics: Dict[str, Scalar] = {}
    for point, row in result:
        for key in _SERVING_GOLDEN_METRICS:
            metrics[f"{point['mode']}.{key}"] = row[key]
    return metrics


def _register_serving_goldens() -> None:
    for scenario in (
        "chat",
        "rag-long-prompt",
        "summarize-512k",
        "bursty-long",
        "mixed-fleet",
        "shared-system-prompt",
        "rag-shared-corpus",
        "agentic-prefix-tree",
    ):
        GOLDEN_REGISTRY[f"serving-{scenario}"] = GoldenDefinition(
            name=f"serving-{scenario}",
            compute=(lambda s: (lambda: _serving_golden(s)))(scenario),
            description=f"TTFT/TPOT/goodput of the {scenario!r} scenario, both deployments",
        )


_register_serving_goldens()


# ---------------------------------------------------------------------------
# Multi-tenant scenarios: global SLO metrics plus every per-tenant QoS key
# (``tenant.<name>.<metric>``) under both deployments.  Pinning the tenant
# keys makes fair-scheduler and admission-control drift visible per tenant,
# not just in the blended aggregate.
# ---------------------------------------------------------------------------
def _tenant_golden(scenario: str) -> Dict[str, Scalar]:
    from .engine import run_sweep
    from .spec import SweepSpec

    spec = SweepSpec.make(
        name=f"golden-tenant-{scenario}",
        evaluator="serving-scenario",
        axes={"mode": ("colocated", "disaggregated")},
        base={"scenario": scenario, "seed": 0},
    )
    result = run_sweep(spec)
    metrics: Dict[str, Scalar] = {}
    for point, row in result:
        for key in _SERVING_GOLDEN_METRICS:
            metrics[f"{point['mode']}.{key}"] = row[key]
        for key in sorted(row):
            if key.startswith("tenant."):
                metrics[f"{point['mode']}.{key}"] = row[key]
    return metrics


def _register_tenant_goldens() -> None:
    for scenario in (
        "noisy-neighbour",
        "tenant-flash-crowd",
        "batch-backfill-under-interactive",
    ):
        GOLDEN_REGISTRY[f"tenant-{scenario}"] = GoldenDefinition(
            name=f"tenant-{scenario}",
            compute=(lambda s: (lambda: _tenant_golden(s)))(scenario),
            description=(
                f"per-tenant TTFT/TPOT/goodput of the {scenario!r} scenario "
                "under fair scheduling, both deployments"
            ),
        )


_register_tenant_goldens()


# ---------------------------------------------------------------------------
# Prefix caching A/B: the acceptance evidence that shared-prefix KV caching
# buys >= 2x median TTFT and >= 2x prefill FLOPs on shared-prompt traffic.
# ---------------------------------------------------------------------------
_PREFIX_AB_METRICS = (
    "ttft_p50",
    "ttft_p99",
    "tpot_p50",
    "goodput_fraction",
    "prefix_hit_rate",
    "prefix_hit_tokens",
    "prefix_flops_saved",
    "prefill_flops_executed",
    "prefix_evictions",
    "preemptions",
)


def _prefix_ab_golden(scenario: str) -> Dict[str, Scalar]:
    from .engine import run_sweep
    from .spec import SweepSpec

    spec = SweepSpec.make(
        name=f"golden-prefix-ab-{scenario}",
        evaluator="serving-scenario",
        axes={"prefix_caching": (False, True)},
        base={"scenario": scenario, "mode": "colocated", "seed": 0},
    )
    result = run_sweep(spec)
    metrics: Dict[str, Scalar] = {}
    for point, row in result:
        label = "cached" if point["prefix_caching"] else "uncached"
        for key in _PREFIX_AB_METRICS:
            metrics[f"{label}.{key}"] = row[key]
    return metrics


def _register_prefix_ab_goldens() -> None:
    for scenario in ("shared-system-prompt", "rag-shared-corpus", "agentic-prefix-tree"):
        GOLDEN_REGISTRY[f"prefix-ab-{scenario}"] = GoldenDefinition(
            name=f"prefix-ab-{scenario}",
            compute=(lambda s: (lambda: _prefix_ab_golden(s)))(scenario),
            description=(
                f"prefix caching on/off A/B of the {scenario!r} scenario "
                "(TTFT, hit rate, prefill FLOPs executed/saved)"
            ),
        )


_register_prefix_ab_goldens()


# ---------------------------------------------------------------------------
# Fleet scenarios: routing-policy comparison headline numbers, generated
# through the sweep engine itself (no cache — goldens must recompute).
# ---------------------------------------------------------------------------
_FLEET_GOLDEN_METRICS = (
    "ttft_p50",
    "ttft_p99",
    "tpot_p50",
    "goodput_fraction",
    "gpu_hours",
    "replicas_peak",
    "rerouted_requests",
    "preemptions",
)


def _fleet_golden(scenario: str) -> Dict[str, Scalar]:
    from .engine import run_sweep
    from .spec import SweepSpec

    spec = SweepSpec.make(
        name=f"golden-fleet-{scenario}",
        evaluator="fleet-scenario",
        axes={"router": ("round-robin", "least-tokens")},
        base={"scenario": scenario, "seed": 0},
    )
    result = run_sweep(spec)
    metrics: Dict[str, Scalar] = {}
    for point, row in result:
        for key in _FLEET_GOLDEN_METRICS:
            metrics[f"{point['router']}.{key}"] = row[key]
    return metrics


def _register_fleet_goldens() -> None:
    for scenario in ("steady-chat", "bursty-long", "unreliable"):
        GOLDEN_REGISTRY[f"fleet-{scenario}"] = GoldenDefinition(
            name=f"fleet-{scenario}",
            compute=(lambda s: (lambda: _fleet_golden(s)))(scenario),
            description=(
                f"fleet TTFT/goodput/GPU-hours of the {scenario!r} scenario "
                "under round-robin and least-tokens routing"
            ),
        )


_register_fleet_goldens()


def _fleet_prefix_golden() -> Dict[str, Scalar]:
    """Fleet-level prefix A/B: routing, autoscaling and caching composed."""
    from .engine import run_sweep
    from .spec import SweepSpec

    spec = SweepSpec.make(
        name="golden-fleet-prefix",
        evaluator="fleet-scenario",
        axes={"prefix_caching": (False, True)},
        base={"scenario": "shared-system-prompt", "seed": 0},
    )
    result = run_sweep(spec)
    metrics: Dict[str, Scalar] = {}
    keys = ("ttft_p50", "ttft_p99", "goodput_fraction", "gpu_hours", "replicas_peak",
            "prefix_hit_rate", "prefix_evictions", "preemptions")
    for point, row in result:
        label = "cached" if point["prefix_caching"] else "uncached"
        for key in keys:
            metrics[f"{label}.{key}"] = row[key]
    return metrics


GOLDEN_REGISTRY["fleet-shared-system-prompt"] = GoldenDefinition(
    name="fleet-shared-system-prompt",
    compute=_fleet_prefix_golden,
    description=(
        "fleet shared-system-prompt scenario with prefix caching on/off: "
        "TTFT, GPU-hours and peak replicas under the rate autoscaler's "
        "effective-capacity signal"
    ),
)
