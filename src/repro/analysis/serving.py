"""Serving comparison table: colocated vs disaggregated across scenarios.

The serving analogue of the scheme-comparison tables: every registered
scenario is simulated under both deployments and the SLO-relevant headline
numbers are tabulated side by side.  The table makes the
prefill/decode-disaggregation tradeoff visible in one place — lower tail
TTFT (the prefill pool is never throttled to protect decode latency) bought
with higher TPOT (the decode pool is a fraction of the fleet).

:func:`prefix_cache_comparison` is the same idea for shared-prefix KV
caching: each shared-prefix scenario simulated with caching on and off,
tabulating TTFT, goodput, hit rate and prefill FLOPs executed vs saved
(the ``experiments prefix-cache`` CLI table).

:func:`tenant_qos_comparison` is the multi-tenant analogue: each
tenant-tagged scenario simulated under FCFS and fair scheduling —
identical trace, only the policy flipped — with one row per (policy,
tenant) so the isolation a fair scheduler buys (and the tail latency FCFS
costs the interactive tenant) is visible per tenant, not blended away in
the aggregate (the ``experiments tenant-qos`` CLI table).
"""


from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..serving.scenarios import SCENARIO_REGISTRY, get_scenario
from ..sweep.cache import SweepCache
from ..sweep.engine import run_sweep
from ..sweep.registry import PREFIX_SCENARIOS, TENANT_SCENARIOS
from ..sweep.spec import Scalar, SweepSpec
from .report import Column, Table

__all__ = [
    "serving_comparison",
    "prefix_cache_comparison",
    "tenant_qos_comparison",
]

def _scenario_rows(
    name: str,
    scenarios: Sequence[str],
    axis: Dict[str, Sequence[Scalar]],
    base: Dict[str, Scalar],
    workers: int,
    cache: Optional[SweepCache],
) -> List[Dict[str, Scalar]]:
    """Simulate every scenario under every ``axis`` value; one row per point.

    A row is the ``serving-scenario`` evaluator's metrics merged with the
    point that produced them (scenario, axis value, seed, ...).
    """
    for scenario in scenarios:
        get_scenario(scenario)  # fail fast with the list of valid names
    spec = SweepSpec.make(
        name=name,
        evaluator="serving-scenario",
        axes={"scenario": tuple(scenarios), **axis},
        base=base,
    )
    sweep = run_sweep(spec, workers=workers, cache=cache)
    return [{**result, **point} for point, result in sweep]


def _petaflops(key: str):
    return lambda row: f"{row[key] / 1e15:.2f}"


def serving_comparison(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: int = 0,
    cache: Optional[SweepCache] = None,
) -> Table:
    """Simulate every (scenario, deployment) pair and tabulate the results.

    Runs as a sweep over (scenario, mode): ``workers > 1`` simulates the
    pairs in parallel processes and ``cache`` memoizes per-pair metrics
    (see :mod:`repro.sweep`).
    """
    names = list(scenarios) if scenarios is not None else sorted(SCENARIO_REGISTRY)
    return Table(
        title=f"Serving — colocated vs disaggregated (seed {seed})",
        columns=(
            Column("scenario", "scenario"),
            Column("mode", "mode"),
            Column("TTFT p50", "ttft_p50", "{:.2f} s"),
            Column("TTFT p99", "ttft_p99", "{:.2f} s"),
            Column("TPOT p50", "tpot_p50", lambda r: f"{r['tpot_p50'] * 1e3:.1f} ms"),
            Column("goodput", "goodput_fraction", "{:.1%}"),
            Column("KV util", "kv_utilization_mean", "{:.1%}"),
            Column("preempt", "preemptions"),
        ),
        rows=_scenario_rows(
            "serving-comparison",
            names,
            {"mode": ("colocated", "disaggregated")},
            {"seed": seed},
            workers,
            cache,
        ),
    )


def prefix_cache_comparison(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: int = 0,
    cache: Optional[SweepCache] = None,
) -> Table:
    """A/B every shared-prefix scenario with prefix caching on and off.

    The colocated deployment is simulated twice per scenario — identical
    trace, identical knobs, only ``prefix_caching`` flipped — and the
    SLO-relevant numbers plus the cache's own outcomes (hit rate, prefill
    FLOPs executed and saved, LRU evictions) are tabulated side by side.
    """
    names = list(scenarios) if scenarios is not None else list(PREFIX_SCENARIOS)
    return Table(
        title=f"Shared-prefix KV caching — on vs off (seed {seed})",
        columns=(
            Column("scenario", "scenario"),
            Column("prefix cache", "prefix_caching", lambda r: ("off", "on")[r["prefix_caching"]]),
            Column("TTFT p50", "ttft_p50", "{:.3f} s"),
            Column("TTFT p99", "ttft_p99", "{:.3f} s"),
            Column("goodput", "goodput_fraction", "{:.1%}"),
            Column("hit rate", "prefix_hit_rate", "{:.1%}"),
            Column("prefill PFLOPs", "prefill_flops_executed", _petaflops("prefill_flops_executed")),
            Column("saved PFLOPs", "prefix_flops_saved", _petaflops("prefix_flops_saved")),
            Column("evictions", "prefix_evictions"),
        ),
        rows=_scenario_rows(
            "prefix-cache-comparison",
            names,
            {"prefix_caching": (False, True)},
            {"seed": seed, "mode": "colocated"},
            workers,
            cache,
        ),
    )


def _slo_verdict(row: Dict[str, Scalar]) -> str:
    verdict = "ok" if row["ttft_p99"] <= row["slo_ttft"] else "MISS"
    return f"{verdict} ({row['slo_ttft']:g} s)"


def tenant_qos_comparison(
    scenarios: Optional[Sequence[str]] = None,
    seed: int = 0,
    workers: int = 0,
    cache: Optional[SweepCache] = None,
) -> Table:
    """A/B every tenant-tagged scenario under FCFS and fair scheduling.

    The colocated deployment is simulated twice per scenario — identical
    trace and tenancy knobs, only the batching policy flipped — and the
    per-tenant SLO numbers are tabulated one row per (policy, tenant).
    The noisy-neighbour story reads straight off the table: under FCFS the
    interactive tenant's TTFT p99 blows through its SLO, under ``fair`` it
    stays inside while the batch tenant keeps backfilling.
    """
    names = list(scenarios) if scenarios is not None else list(TENANT_SCENARIOS)
    rows = []
    for merged in _scenario_rows(
        "tenant-qos-comparison",
        names,
        {"policy": ("fcfs", "fair")},
        {"seed": seed, "mode": "colocated"},
        workers,
        cache,
    ):
        tenants = sorted({key.split(".", 2)[1] for key in merged if key.startswith("tenant.")})
        for tenant in tenants:
            prefix = f"tenant.{tenant}."
            row = {"scenario": merged["scenario"], "policy": merged["policy"], "tenant": tenant}
            row.update(
                (key[len(prefix):], value)
                for key, value in merged.items()
                if key.startswith(prefix)
            )
            rows.append(row)
    return Table(
        title=f"Per-tenant QoS — FCFS vs fair scheduling (seed {seed})",
        columns=(
            Column("scenario", "scenario"),
            Column("policy", "policy"),
            Column("tenant", "tenant"),
            Column("requests", "num_requests"),
            Column("TTFT p50", "ttft_p50", "{:.3f} s"),
            Column("TTFT p99", "ttft_p99", "{:.3f} s"),
            Column("TTFT SLO", "slo_ttft", _slo_verdict),
            Column("TPOT p99", "tpot_p99", lambda r: f"{r['tpot_p99'] * 1e3:.1f} ms"),
            Column("attainment", "goodput_fraction", "{:.1%}"),
            Column("goodput req/s", "goodput_rps", "{:.3f}"),
        ),
        rows=rows,
    )
