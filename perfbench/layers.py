"""Which simulator entry points the traced run wraps, and how they become metrics.

:func:`install` puts a :class:`~tracer.Tracer` around the public entry
points of every layer named in :mod:`catalog`; :func:`per_layer_metrics`
turns the tracer's totals into the per-layer metrics of ``BENCHMARK.json``:
counts per traced batch job, self time as a share of the traced jobs'
wall-clock.
The simulator modules must already be imported (the workloads' set-up does
that).
"""

import inspect

import catalog
from tracer import CountingHeapq

#: Spans whose ``.calls`` / ``.self_share`` metrics carry their own name.
_SPANS = [
    name[: -len(".calls")] for name in catalog.MOVES if name.endswith(".calls")
] + [
    "serving.engine.run", "fleet.cluster.run", "core.planner.run",
]

_HEAP_POPS = "fleet.cluster.heap_events"


def _flops_caches():
    from repro.model import flops
    from repro.serving import engine

    return (
        engine._decode_flops_cached,
        engine._prefill_flops_cached,
        flops.layer_forward_flops,
        flops.output_layer_flops,
        flops.model_forward_flops,
    )


def flops_cache_counts():
    """(hits, misses) summed over the FLOPs memo caches behind pricing."""
    hits = misses = 0
    for cache in _flops_caches():
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def install(tracer):
    """Wrap every traced entry point; ``tracer.uninstall()`` undoes it."""
    from repro.core import planner, schedule
    from repro.fleet import autoscaler, cluster, router
    from repro.obs import critical_path, events
    from repro.parallel import search
    from repro.serving import batcher, engine, metrics, paged_kv, prefix_cache, workload
    from repro.sim import engine as sim_engine
    from repro.sim import memory_tracker, providers
    from repro.systems import deepspeed, pipeline_systems

    counters = tracer.counters

    def count(key, amount_of):
        def on_result(result, args):
            counters[key] += amount_of(result, args)
        return on_result

    # Serving: arrivals, batcher, KV allocator, prefix cache, pool, metrics.
    for attribute, factory in list(vars(workload).items()):
        if attribute.endswith("_stream") and inspect.isfunction(factory):
            tracer.patch_function(factory, "serving.workload.next", iterable=True)
    tracer.patch_method(batcher.ContinuousBatcher, "enqueue", "serving.batcher.enqueue")
    tracer.patch_method(
        batcher.ContinuousBatcher, "plan", "serving.batcher.plan",
        count("serving.batcher.plan.decode_slots", lambda plan, _: len(plan.decode)),
    )
    tracer.patch_method(batcher.ContinuousBatcher, "commit", "serving.batcher.commit")
    allocator = paged_kv.PagedKVAllocator
    tracer.patch_method(
        allocator, "reserve", "serving.paged_kv.reserve",
        count("serving.paged_kv.reserve.failed", lambda ok, _: not ok),
    )
    tracer.patch_method(
        allocator, "bulk_reserve_decode", "serving.paged_kv.bulk_reserve_decode"
    )
    tracer.patch_method(allocator, "release", "serving.paged_kv.release")
    cache = prefix_cache.PrefixCache
    tracer.patch_method(cache, "match", "serving.prefix_cache.match")

    def count_prefix_blocks(hit_blocks, args):  # args: (cache, request_id, keys)
        counters["prefix.hit_blocks"] += hit_blocks
        counters["prefix.wanted_blocks"] += len(args[2])

    tracer.patch_method(cache, "acquire", "serving.prefix_cache.acquire", count_prefix_blocks)
    tracer.patch_method(cache, "publish", "serving.prefix_cache.publish")
    tracer.patch_method(cache, "evict", "serving.prefix_cache.evict")
    pool = engine._Pool
    for attribute in ("iteration_time", "prefill_budget", "decode_iteration_time"):
        tracer.patch_method(pool, attribute, f"serving.engine.{attribute}")
    tracer.patch_method(
        pool, "decode_stretch_length", "serving.engine.decode_stretch_length",
        count("stretch.hits", lambda steps, _: steps > 0),
    )
    tracer.patch_method(pool, "run", "serving.engine.run")
    tracer.patch_method(metrics.StreamingMetrics, "observe", "serving.metrics.observe")
    tracer.patch_method(metrics.StreamingMetrics, "finalize", "serving.metrics.finalize")
    tracer.patch_function(metrics.compute_metrics, "serving.metrics.compute_metrics")

    # Fleet: routing, autoscaling, the cluster loop and its event heap.
    tracer.patch_subclasses(router.Router, "route", "fleet.router.route")
    tracer.patch_subclasses(autoscaler.Autoscaler, "desired", "fleet.autoscaler.desired")
    tracer.patch_method(cluster.FleetEngine, "run", "fleet.cluster.run")
    tracer.patch_attribute(cluster, "heapq", CountingHeapq(counters, _HEAP_POPS))

    # Observability.
    tracer.patch_method(events.EventRecorder, "emit", "obs.events.emit")
    tracer.patch_function(
        critical_path.build_attributions, "obs.critical_path.build_attributions"
    )
    tracer.patch_function(
        critical_path.verify_conservation, "obs.critical_path.verify_conservation"
    )

    # Training: grid search and event simulation.
    tracer.patch_function(
        search.candidate_parallel_configs,
        "parallel.search.candidate_parallel_configs",
        iterable=True,
    )
    feasible = count("systems.feasible", lambda estimate, _: estimate.feasible)
    tracer.patch_method(pipeline_systems._PipelineSystem, "evaluate", "systems.evaluate", feasible)
    tracer.patch_method(deepspeed.DeepSpeedSystem, "evaluate", "systems.evaluate", feasible)
    tracer.patch_function(
        schedule.build_slimpipe_schedule, "core.schedule.build_slimpipe_schedule"
    )
    tracer.patch_method(planner.SlimPipePlanner, "run", "core.planner.run")
    tracer.patch_method(
        sim_engine.SimulationEngine, "run", "sim.engine.run",
        count("sim.engine.passes", lambda timeline, _: len(timeline.spans)),
    )
    tracer.patch_method(providers.ModelCostProvider, "duration", "sim.providers.duration")
    tracer.patch_method(providers.ModelCostProvider, "comm_delay", "sim.providers.comm_delay")
    for attribute in ("stored_bytes", "transient_bytes", "base_bytes"):
        tracer.patch_method(
            providers.ModelActivationAccountant, attribute, "sim.providers.accountant"
        )
    tracer.patch_method(memory_tracker.MemoryTracker, "profile", "sim.memory_tracker.profile")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, job_seconds, stats, cache_counts, overhead):
    """The contract's per-layer values over the traced batch jobs.

    ``job_seconds`` are the traced jobs' wall-clock times; counts are per
    job.  ``stats`` sums what the jobs' own results report (preemptions,
    crashes, reroutes, iterations, events recorded); ``cache_counts`` is the
    (hits, misses) delta of the FLOPs caches over the traced jobs.
    """
    spans = tracer.by_name()
    counters = tracer.counters
    traced_seconds = sum(job_seconds)
    values = {"trace.overhead": overhead}
    for prefix in _SPANS:
        calls, _, self_s = spans.get(prefix, (0, 0.0, 0.0))
        values[f"{prefix}.calls"] = calls
        values[f"{prefix}.self_share"] = self_s / traced_seconds
    for key in (
        "serving.batcher.plan.decode_slots",
        "serving.paged_kv.reserve.failed",
        "sim.engine.passes",
        _HEAP_POPS,
    ):
        values[key] = counters[key]
    values["serving.batcher.preemptions"] = stats["preemptions"]
    values["fleet.failures.crashes"] = stats["crashes"]
    values["fleet.failures.rerouted"] = stats["rerouted"]
    values["obs.events.recorded"] = stats["events_recorded"]
    values["fleet.cluster.heap_events_per_iteration"] = _ratio(
        counters[_HEAP_POPS], stats["fleet_iterations"]
    )
    values["serving.prefix_cache.hit_ratio"] = _ratio(
        counters["prefix.hit_blocks"], counters["prefix.wanted_blocks"]
    )
    values["serving.engine.stretch_hit_ratio"] = _ratio(
        counters["stretch.hits"], values["serving.engine.decode_stretch_length.calls"]
    )
    coalesced = values["serving.engine.decode_iteration_time.calls"]
    values["serving.engine.coalesced_ratio"] = _ratio(
        coalesced, coalesced + values["serving.engine.iteration_time.calls"]
    )
    values["systems.evaluate.feasible_ratio"] = _ratio(
        counters["systems.feasible"], values["systems.evaluate.calls"]
    )
    values["model.flops.cache_hit_ratio"] = _ratio(cache_counts[0], sum(cache_counts))
    jobs = len(job_seconds)
    metrics = {}
    for metric in catalog.contract()["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        value = values[name] / jobs if unit == "count" else values[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
