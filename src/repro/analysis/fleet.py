"""Fleet comparison table: routing policies across fleet scenarios.

The cluster-level analogue of :mod:`repro.analysis.serving`: each selected
fleet scenario is simulated under each routing policy and the operator-facing
headline numbers — goodput under SLO, tail TTFT, GPU-hours and dollar cost,
failover re-routes — are tabulated side by side.  The table is where the
routing tradeoff becomes visible in one place: round-robin keeps up on
uniform chat traffic but loses its tail the moment 32K prefills land
unevenly, while the token- and KV-aware policies buy their lower p99 with no
extra GPU-hours (same fleet, same trace — only the assignment differs).

Runs as a sweep over (scenario, router): ``workers > 1`` simulates the pairs
in parallel processes and ``cache`` memoizes per-pair metrics.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..fleet.router import available_routers
from ..fleet.scenarios import FLEET_SCENARIO_REGISTRY, get_fleet_scenario
from ..sweep.cache import SweepCache
from ..sweep.engine import run_sweep
from ..sweep.spec import SweepSpec
from .report import Column, Table

__all__ = ["fleet_comparison"]


def fleet_comparison(
    scenarios: Optional[Sequence[str]] = None,
    routers: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: int = 0,
    cache: Optional[SweepCache] = None,
) -> Table:
    """Simulate every (scenario, router) pair and tabulate the results."""
    names = list(scenarios) if scenarios is not None else sorted(FLEET_SCENARIO_REGISTRY)
    for name in names:
        get_fleet_scenario(name)  # fail fast with the list of valid names
    policies = list(routers) if routers is not None else available_routers()
    spec = SweepSpec.make(
        name="fleet-comparison",
        evaluator="fleet-scenario",
        axes={"scenario": tuple(names), "router": tuple(policies)},
        base={"seed": seed},
    )
    sweep = run_sweep(spec, workers=workers, cache=cache)
    return Table(
        title=f"Fleet — routing policy x scenario (seed {seed})",
        columns=(
            Column("scenario", "scenario"),
            Column("router", "router"),
            Column("TTFT p50", "ttft_p50", "{:.2f} s"),
            Column("TTFT p99", "ttft_p99", "{:.2f} s"),
            Column("goodput", "goodput_fraction", "{:.1%}"),
            Column("GPU-hours", "gpu_hours", "{:.2f}"),
            Column("cost", "cost_usd", "${:.2f}"),
            Column("peak replicas", "replicas_peak"),
            Column("rerouted", "rerouted_requests"),
            Column("preempt", "preemptions"),
        ),
        rows=[{**result, **point} for point, result in sweep],
    )
