"""Registered sweep evaluators: one flat-dict metric function per point kind.

Evaluators are module-level functions registered by name so that

* a :class:`~repro.sweep.spec.SweepSpec` can reference them declaratively,
* ``ProcessPoolExecutor`` workers can resolve them by name (functions ship
  across the fork/pickle boundary as ``(module, qualname)`` references), and
* the cache key of a point never depends on closure state.

Each evaluator takes one sweep point (a flat dict of JSON scalars) and
returns a flat dict of JSON scalars.  An optional *pruner* registered next to
the evaluator gives a cheap memory-model early-out: it either returns ``None``
(evaluate normally) or a complete result dict for a point that provably
cannot fit, skipping the expensive grid search entirely.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..constants import GIB, UnknownNameError, tokens_from_k
from ..hardware.topology import hopper_cluster
from ..model.config import get_model_config
from ..model.memory import RecomputeMode
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..systems import DeepSpeedSystem, MegatronSystem, SchemeSystem, SlimPipeSystem

from .spec import Scalar

__all__ = [
    "EVALUATOR_REGISTRY",
    "Evaluator",
    "get_evaluator",
    "get_pruner",
    "register_evaluator",
    "evaluate_fig12_cell",
    "evaluate_scheme_point",
    "evaluate_serving_scenario",
    "evaluate_fleet_scenario",
]

Evaluator = Callable[[Dict[str, Scalar]], Dict[str, Scalar]]

EVALUATOR_REGISTRY: Dict[str, Evaluator] = {}
_PRUNER_REGISTRY: Dict[str, Evaluator] = {}


def register_evaluator(
    name: str, pruner: Optional[Callable] = None
) -> Callable[[Evaluator], Evaluator]:
    """Class the decorated function as the evaluator behind ``name``."""

    def decorate(fn: Evaluator) -> Evaluator:
        EVALUATOR_REGISTRY[name] = fn
        if pruner is not None:
            _PRUNER_REGISTRY[name] = pruner
        return fn

    return decorate


def get_evaluator(name: str) -> Evaluator:
    try:
        return EVALUATOR_REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown evaluator {name!r}; available: {sorted(EVALUATOR_REGISTRY)}"
        ) from None


def get_pruner(name: str) -> Optional[Evaluator]:
    """The memory-model early-out for ``name``, when one is registered."""
    return _PRUNER_REGISTRY.get(name)


# ===========================================================================
# Training-system grid cells (the Figure 12 unit of work)
# ===========================================================================
_SYSTEM_FACTORIES = {
    "deepspeed": DeepSpeedSystem,
    "megatron-lm": MegatronSystem,
    "slimpipe": SlimPipeSystem,
}


def _get_system(name: str):
    try:
        return _SYSTEM_FACTORIES[name]()
    except KeyError:
        raise UnknownNameError(
            f"unknown system {name!r}; available: {sorted(_SYSTEM_FACTORIES)}"
        ) from None


def _model_states_exceed_cluster(model_name: str, num_gpus: int) -> bool:
    """Memory-model prune: do minimal model states already exceed the cluster?

    Model states (bf16 params, fp32 grads, sharded fp32 optimizer) can be
    partitioned but never compressed, so if even the fully sharded optimizer
    state plus weights and gradients summed over the whole cluster exceeds
    the aggregate usable HBM, *no* hybrid-parallelism candidate fits and the
    grid search can be skipped outright.
    """
    from ..systems.estimator import AnalyticEstimator

    model = get_model_config(model_name)
    cluster = hopper_cluster(num_gpus)
    estimator = AnalyticEstimator(model, cluster)
    optimizer = estimator.settings.optimizer
    # Fully distributed optimizer: master weights + both Adam moments shard
    # across the cluster; bf16 params and fp32 grads exist once per pipeline
    # replica at best (lower bound: once).
    cluster_state_bytes = model.total_params() * (
        optimizer.param_bytes
        + optimizer.grad_bytes
        + optimizer.master_param_bytes
        + optimizer.exp_avg_bytes
        + optimizer.exp_avg_sq_bytes
    )
    return cluster_state_bytes > estimator.usable_memory_bytes() * cluster.total_gpus


def _prune_fig12_cell(point: Dict[str, Scalar]) -> Optional[Dict[str, Scalar]]:
    if _model_states_exceed_cluster(str(point["model"]), int(point["num_gpus"])):
        return {
            "feasible": False,
            "reason": "oom",
            "mfu": 0.0,
            "iteration_time": 0.0,
            "peak_memory_gib": 0.0,
            "config": "",
            "pruned": True,
        }
    return None


@register_evaluator("fig12-cell", pruner=_prune_fig12_cell)
def evaluate_fig12_cell(point: Dict[str, Scalar]) -> Dict[str, Scalar]:
    """Grid-search one (model, cluster, context, system) cell of Figure 12."""
    model = get_model_config(str(point["model"]))
    cluster = hopper_cluster(int(point["num_gpus"]))
    sequence = tokens_from_k(float(point["sequence_k"]))
    tokens_per_iteration = int(point.get("tokens_per_iteration", 4 * 1024 * 1024))
    workload = WorkloadConfig(
        sequence_length=sequence,
        tokens_per_iteration=max(tokens_per_iteration, sequence),
    )
    system = _get_system(str(point["system"]))
    estimate = system.best_configuration(model, cluster, workload)
    config = ""
    if estimate.parallel is not None:
        p = estimate.parallel
        config = f"t={p.t} c={p.c} d={p.d} e={p.e} p={p.p} v={p.v}"
        if p.num_slices:
            config += f" n={p.num_slices}"
    return {
        "feasible": estimate.feasible,
        "reason": estimate.reason,
        "mfu": estimate.mfu,
        "iteration_time": estimate.iteration_time,
        "peak_memory_gib": estimate.peak_memory_bytes / GIB,
        "config": config,
    }


# ===========================================================================
# Scheme-comparison points (the Figures 13 / 14 unit of work)
# ===========================================================================
def _prune_scheme_point(point: Dict[str, Scalar]) -> Optional[Dict[str, Scalar]]:
    num_gpus = int(point.get("tensor_parallel", 8)) * int(point.get("pipeline_parallel", 8))
    if _model_states_exceed_cluster(str(point.get("model", "llama-13b")), num_gpus):
        return {
            "feasible": False,
            "mfu": 0.0,
            "peak_memory_gib": 0.0,
            "bubble_fraction": 0.0,
            "iteration_time": 0.0,
            "pruned": True,
        }
    return None


@register_evaluator("scheme-point", pruner=_prune_scheme_point)
def evaluate_scheme_point(point: Dict[str, Scalar]) -> Dict[str, Scalar]:
    """Evaluate one pipeline scheme at one fixed operating point.

    The one evaluation of a scheme point, behind the ``scheme-context``
    sweep and Figures 13/14 (:func:`repro.analysis.figures.figure13_scheme_mfu`).
    Mirrors the Section 6.6 methodology: fixed TP/PP, full checkpointing
    except for the zero-bubble variants, interleaving only for the schemes
    that support it.
    """
    scheme = str(point["scheme"])
    model = get_model_config(str(point.get("model", "llama-13b")))
    t = int(point.get("tensor_parallel", 8))
    p = int(point.get("pipeline_parallel", 8))
    cluster = hopper_cluster(t * p)
    sequence = tokens_from_k(float(point["sequence_k"]))
    batch_sequences = int(point.get("batch_sequences", 4))
    virtual_stages = int(point.get("virtual_stages", 5))
    uses_virtual = scheme in ("interleaved-1f1b", "slimpipe")
    recompute = (
        RecomputeMode.NONE if scheme in ("zb-v", "v-half") else RecomputeMode.FULL
    )
    workload = WorkloadConfig(
        sequence_length=sequence, tokens_per_iteration=sequence * batch_sequences
    )
    parallel = ParallelConfig(
        tensor_parallel_size=t,
        pipeline_parallel_size=p,
        virtual_pipeline_size=virtual_stages if uses_virtual else 1,
        num_slices=int(point.get("slices_per_stage", 1)) * p if scheme == "slimpipe" else None,
    )
    system = SchemeSystem(scheme, forced_recompute=recompute)
    try:
        estimate = system.evaluate(model, cluster, workload, parallel)
    except ValueError:
        return {
            "feasible": False,
            "mfu": 0.0,
            "peak_memory_gib": 0.0,
            "bubble_fraction": 0.0,
            "iteration_time": 0.0,
        }
    return {
        "feasible": estimate.feasible,
        "mfu": estimate.mfu,
        "peak_memory_gib": estimate.peak_memory_bytes / GIB,
        "bubble_fraction": estimate.bubble_fraction,
        "iteration_time": estimate.iteration_time,
    }


# ===========================================================================
# Serving scenarios (the serving-comparison unit of work)
# ===========================================================================
@register_evaluator("serving-scenario")
def evaluate_serving_scenario(point: Dict[str, Scalar]) -> Dict[str, Scalar]:
    """Simulate one (scenario, deployment mode) pair end to end."""
    from ..serving.scenarios import get_scenario, run_scenario

    scenario = get_scenario(str(point["scenario"]))
    prefix_caching = point.get("prefix_caching")
    retain_records = point.get("retain_records")
    max_requests = point.get("max_requests")
    policy = point.get("policy")
    result = run_scenario(
        scenario,
        str(point.get("mode", "colocated")),
        seed=int(point.get("seed", 0)),
        policy=None if policy is None else str(policy),
        fast_forward=bool(point.get("fast_forward", True)),
        prefix_caching=None if prefix_caching is None else bool(prefix_caching),
        retain_records=None if retain_records is None else bool(retain_records),
        max_requests=None if max_requests is None else int(max_requests),
    )
    m = result.metrics
    row: Dict[str, Scalar] = {
        "num_requests": m.num_requests,
        "duration": m.duration,
        "ttft_p50": m.ttft_p50,
        "ttft_p95": m.ttft_p95,
        "ttft_p99": m.ttft_p99,
        "tpot_p50": m.tpot_p50,
        "tpot_p95": m.tpot_p95,
        "tpot_p99": m.tpot_p99,
        "e2e_p50": m.e2e_p50,
        "e2e_p95": m.e2e_p95,
        "e2e_p99": m.e2e_p99,
        "output_tokens_per_second": m.output_tokens_per_second,
        "requests_per_second": m.requests_per_second,
        "goodput_fraction": m.goodput_fraction,
        "goodput_rps": m.goodput_rps,
        "kv_utilization_mean": m.kv_utilization_mean,
        "kv_utilization_peak": m.kv_utilization_peak,
        "preemptions": m.preemptions,
        "slo_ttft": m.slo.ttft,
        "slo_tpot": m.slo.tpot,
        "prefix_hit_rate": result.prefix_hit_rate,
        "prefix_hit_tokens": result.prefix_hit_tokens,
        "prefix_flops_saved": result.prefix_flops_saved,
        "prefill_flops_executed": result.prefill_flops_executed,
        "prefix_evictions": result.prefix_evictions,
    }
    # Per-tenant QoS keys appear only for tenant-tagged scenarios, so every
    # pre-tenancy golden keeps exactly its historical key set.
    for tenant, tm in sorted(result.tenant_metrics.items()):
        prefix = f"tenant.{tenant}."
        row[prefix + "num_requests"] = tm.num_requests
        row[prefix + "output_tokens"] = tm.output_tokens
        row[prefix + "ttft_p50"] = tm.ttft_p50
        row[prefix + "ttft_p99"] = tm.ttft_p99
        row[prefix + "tpot_p50"] = tm.tpot_p50
        row[prefix + "tpot_p99"] = tm.tpot_p99
        row[prefix + "goodput_fraction"] = tm.goodput_fraction
        row[prefix + "goodput_rps"] = tm.goodput_rps
        row[prefix + "slo_ttft"] = tm.slo.ttft
        row[prefix + "slo_tpot"] = tm.slo.tpot
    return row


# ===========================================================================
# Fleet scenarios (the fleet-comparison / capacity-planner unit of work)
# ===========================================================================
@register_evaluator("fleet-scenario")
def evaluate_fleet_scenario(point: Dict[str, Scalar]) -> Dict[str, Scalar]:
    """Simulate one (scenario, router, fleet size) triple end to end."""
    from ..fleet.scenarios import get_fleet_scenario, run_fleet_scenario

    scenario = get_fleet_scenario(str(point["scenario"]))
    router = point.get("router")
    replicas = point.get("replicas")
    autoscale = point.get("autoscale")
    prefix_caching = point.get("prefix_caching")
    result = run_fleet_scenario(
        scenario,
        router=None if router is None else str(router),
        replicas=None if replicas is None else int(replicas),
        seed=int(point.get("seed", 0)),
        load_scale=float(point.get("load_scale", 1.0)),
        autoscale=None if autoscale is None else bool(autoscale),
        with_failures=bool(point.get("with_failures", True)),
        fast_forward=bool(point.get("fast_forward", True)),
        prefix_caching=None if prefix_caching is None else bool(prefix_caching),
    )
    m = result.metrics
    f = result.fleet
    return {
        "num_requests": m.num_requests,
        "duration": m.duration,
        "ttft_p50": m.ttft_p50,
        "ttft_p95": m.ttft_p95,
        "ttft_p99": m.ttft_p99,
        "tpot_p50": m.tpot_p50,
        "tpot_p95": m.tpot_p95,
        "tpot_p99": m.tpot_p99,
        "e2e_p50": m.e2e_p50,
        "e2e_p95": m.e2e_p95,
        "e2e_p99": m.e2e_p99,
        "output_tokens_per_second": m.output_tokens_per_second,
        "requests_per_second": m.requests_per_second,
        "goodput_fraction": m.goodput_fraction,
        "goodput_rps": m.goodput_rps,
        "kv_utilization_mean": m.kv_utilization_mean,
        "kv_utilization_peak": m.kv_utilization_peak,
        "preemptions": m.preemptions,
        "slo_ttft": m.slo.ttft,
        "slo_tpot": m.slo.tpot,
        "replicas_provisioned": f.replicas_provisioned,
        "replicas_peak": f.replicas_peak,
        "replicas_final": f.replicas_final,
        "scale_up_events": f.scale_up_events,
        "scale_down_events": f.scale_down_events,
        "crashes": f.crashes,
        "slow_events": f.slow_events,
        "rerouted_requests": f.rerouted_requests,
        "gpu_hours": f.gpu_hours,
        "cost_usd": f.cost_usd,
        "iterations": result.iterations,
        "token_accounting_balanced": result.token_accounting_balanced,
        "prefix_hit_rate": result.prefix_hit_rate,
        "prefix_hit_tokens": result.prefix_hit_tokens,
        "prefix_flops_saved": result.prefix_flops_saved,
        "prefill_flops_executed": result.prefill_flops_executed,
        "prefix_evictions": result.prefix_evictions,
    }
