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
from .registry import FLEET_SCENARIOS, PREFIX_SCENARIOS, SERVING_SCENARIOS, TENANT_SCENARIOS
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
def _register_experiment_goldens() -> None:
    """One golden per figure/table of the experiment registry.

    Each pins the metrics its table's ``golden`` layout declares.  The
    registry's figure and table modules import ``repro.sweep`` only inside
    the generators that run sweeps, so reading it here is cycle-free.
    """
    from ..analysis.experiments import EXPERIMENTS

    for experiment in EXPERIMENTS.values():
        if experiment.golden:
            GOLDEN_REGISTRY[experiment.golden] = GoldenDefinition(
                name=experiment.golden,
                compute=experiment.golden_metrics,
                description=experiment.description,
            )


_register_experiment_goldens()


# ---------------------------------------------------------------------------
# Serving and fleet scenarios: each golden is a two-point sweep of one
# scenario through the sweep engine itself (no cache — goldens must
# recompute), its metrics keyed ``<point label>.<metric>``.
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

#: The prefix-caching A/B: the acceptance evidence that shared-prefix KV
#: caching buys >= 2x median TTFT and >= 2x prefill FLOPs on shared prompts.
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

#: Fleet-level prefix A/B: routing, autoscaling and caching composed.
_FLEET_PREFIX_METRICS = (
    "ttft_p50",
    "ttft_p99",
    "goodput_fraction",
    "gpu_hours",
    "replicas_peak",
    "prefix_hit_rate",
    "prefix_evictions",
    "preemptions",
)


def _register_scenario_golden(
    name: str,
    description: str,
    evaluator: str,
    axis: Dict[str, Sequence[Scalar]],
    base: Dict[str, Scalar],
    keys: Sequence[str],
    tenants: bool = False,
) -> None:
    """Pin ``keys`` of one scenario at both values of a single-axis sweep.

    Points are labelled by their axis value, booleans (prefix caching) as
    ``cached`` / ``uncached``.  ``tenants`` also pins every per-tenant
    ``tenant.<name>.<metric>`` key, so fair-scheduler and admission-control
    drift shows per tenant, not just in the blended aggregate.
    """

    def compute() -> Dict[str, Scalar]:
        from .engine import run_sweep
        from .spec import SweepSpec

        spec = SweepSpec.make(name=f"golden-{name}", evaluator=evaluator, axes=axis, base=base)
        (axis_name,) = axis
        metrics: Dict[str, Scalar] = {}
        for point, row in run_sweep(spec):
            label = point[axis_name]
            if isinstance(label, bool):
                label = "cached" if label else "uncached"
            extra = sorted(key for key in row if key.startswith("tenant.")) if tenants else []
            for key in (*keys, *extra):
                metrics[f"{label}.{key}"] = row[key]
        return metrics

    GOLDEN_REGISTRY[name] = GoldenDefinition(name=name, compute=compute, description=description)


def _register_scenario_goldens() -> None:
    deployments = {"mode": ("colocated", "disaggregated")}
    caching = {"prefix_caching": (False, True)}
    for scenario in SERVING_SCENARIOS:
        _register_scenario_golden(
            f"serving-{scenario}",
            f"TTFT/TPOT/goodput of the {scenario!r} scenario, both deployments",
            "serving-scenario",
            deployments,
            {"scenario": scenario, "seed": 0},
            _SERVING_GOLDEN_METRICS,
        )
    for scenario in TENANT_SCENARIOS:
        _register_scenario_golden(
            f"tenant-{scenario}",
            f"per-tenant TTFT/TPOT/goodput of the {scenario!r} scenario "
            "under fair scheduling, both deployments",
            "serving-scenario",
            deployments,
            {"scenario": scenario, "seed": 0},
            _SERVING_GOLDEN_METRICS,
            tenants=True,
        )
    for scenario in PREFIX_SCENARIOS:
        _register_scenario_golden(
            f"prefix-ab-{scenario}",
            f"prefix caching on/off A/B of the {scenario!r} scenario "
            "(TTFT, hit rate, prefill FLOPs executed/saved)",
            "serving-scenario",
            caching,
            {"scenario": scenario, "mode": "colocated", "seed": 0},
            _PREFIX_AB_METRICS,
        )
    for scenario in FLEET_SCENARIOS:
        _register_scenario_golden(
            f"fleet-{scenario}",
            f"fleet TTFT/goodput/GPU-hours of the {scenario!r} scenario "
            "under round-robin and least-tokens routing",
            "fleet-scenario",
            {"router": ("round-robin", "least-tokens")},
            {"scenario": scenario, "seed": 0},
            _FLEET_GOLDEN_METRICS,
        )
    _register_scenario_golden(
        "fleet-shared-system-prompt",
        "fleet shared-system-prompt scenario with prefix caching on/off: "
        "TTFT, GPU-hours and peak replicas under the rate autoscaler's "
        "effective-capacity signal",
        "fleet-scenario",
        caching,
        {"scenario": "shared-system-prompt", "seed": 0},
        _FLEET_PREFIX_METRICS,
    )


_register_scenario_goldens()
