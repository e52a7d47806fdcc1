"""Workload names, the contract, and what each per-layer metric should move.

Metric names, units and directions live in ``BENCHMARK.json`` at the root of
the checkout; :func:`contract` reads it.  This module only adds what the
contract has no room for: for every per-layer metric, the end-to-end metric
it should move and the workloads on which it should move it.  A layer that
sits idle on a workload (zero calls) predicts "no change" there.
"""

import json
from pathlib import Path

SERVE = "serve-stream"
FLEET = "fleet-prefix-failover"
TRAIN = "train-plan"
WORKLOADS = (SERVE, FLEET, TRAIN)

CONTRACT_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def contract():
    """The parsed ``BENCHMARK.json``."""
    return json.loads(CONTRACT_PATH.read_text())


_RUN = "run_s"

#: Per-layer metric -> (end-to-end metric it moves, workloads it moves on).
#: ``<layer>.calls`` is calls per batch job and ``<layer>.self_share`` the
#: layer's self time over the traced jobs' wall-clock.
MOVES = {
    # Arrival ingestion.
    "serving.workload.next.calls": (_RUN, (SERVE,)),
    "serving.workload.next.self_share": (_RUN, (SERVE,)),
    # Continuous batcher.
    "serving.batcher.enqueue.calls": (_RUN, (SERVE,)),
    "serving.batcher.enqueue.self_share": (_RUN, (SERVE,)),
    "serving.batcher.plan.calls": (_RUN, (SERVE,)),
    "serving.batcher.plan.self_share": (_RUN, (SERVE,)),
    "serving.batcher.plan.decode_slots": (_RUN, (SERVE,)),
    "serving.batcher.commit.calls": (_RUN, (SERVE,)),
    "serving.batcher.commit.self_share": (_RUN, (SERVE,)),
    "serving.batcher.preemptions": (_RUN, (SERVE,)),
    # Paged KV allocator.
    "serving.paged_kv.reserve.calls": (_RUN, (SERVE,)),
    "serving.paged_kv.reserve.self_share": (_RUN, (SERVE,)),
    "serving.paged_kv.reserve.failed": (_RUN, (SERVE,)),
    "serving.paged_kv.bulk_reserve_decode.calls": (_RUN, (SERVE,)),
    "serving.paged_kv.bulk_reserve_decode.self_share": (_RUN, (SERVE,)),
    "serving.paged_kv.release.calls": (_RUN, (SERVE,)),
    "serving.paged_kv.release.self_share": (_RUN, (SERVE,)),
    # Shared-prefix cache (idle on serve-stream: the prediction there is no change).
    "serving.prefix_cache.match.calls": (_RUN, (FLEET,)),
    "serving.prefix_cache.match.self_share": (_RUN, (FLEET,)),
    "serving.prefix_cache.acquire.calls": (_RUN, (FLEET,)),
    "serving.prefix_cache.acquire.self_share": (_RUN, (FLEET,)),
    "serving.prefix_cache.publish.calls": (_RUN, (FLEET,)),
    "serving.prefix_cache.publish.self_share": (_RUN, (FLEET,)),
    "serving.prefix_cache.evict.calls": (_RUN, (FLEET,)),
    "serving.prefix_cache.evict.self_share": (_RUN, (FLEET,)),
    "serving.prefix_cache.hit_ratio": (_RUN, (FLEET,)),
    # Pool engine: pricing and budget move serve-stream, stretches move the fleet.
    "serving.engine.iteration_time.calls": (_RUN, (SERVE,)),
    "serving.engine.iteration_time.self_share": (_RUN, (SERVE,)),
    "serving.engine.prefill_budget.calls": (_RUN, (SERVE,)),
    "serving.engine.prefill_budget.self_share": (_RUN, (SERVE,)),
    "serving.engine.decode_stretch_length.calls": (_RUN, (FLEET,)),
    "serving.engine.decode_stretch_length.self_share": (_RUN, (FLEET,)),
    "serving.engine.decode_iteration_time.calls": (_RUN, (FLEET,)),
    "serving.engine.decode_iteration_time.self_share": (_RUN, (FLEET,)),
    "serving.engine.run.self_share": (_RUN, (SERVE,)),
    "serving.engine.stretch_hit_ratio": (_RUN, (FLEET,)),
    "serving.engine.coalesced_ratio": (_RUN, (FLEET,)),
    # Metrics aggregation: streaming fold on serve-stream, record path on the fleet.
    "serving.metrics.observe.calls": (_RUN, (SERVE,)),
    "serving.metrics.observe.self_share": (_RUN, (SERVE,)),
    "serving.metrics.finalize.calls": (_RUN, (SERVE,)),
    "serving.metrics.finalize.self_share": (_RUN, (SERVE,)),
    "serving.metrics.compute_metrics.calls": (_RUN, (FLEET,)),
    "serving.metrics.compute_metrics.self_share": (_RUN, (FLEET,)),
    # FLOPs memo caches behind iteration pricing.
    "model.flops.cache_hit_ratio": (_RUN, (SERVE, FLEET)),
    # Fleet layer.
    "fleet.router.route.calls": (_RUN, (FLEET,)),
    "fleet.router.route.self_share": (_RUN, (FLEET,)),
    "fleet.autoscaler.desired.calls": (_RUN, (FLEET,)),
    "fleet.autoscaler.desired.self_share": (_RUN, (FLEET,)),
    "fleet.cluster.run.self_share": (_RUN, (FLEET,)),
    "fleet.cluster.heap_events": (_RUN, (FLEET,)),
    "fleet.cluster.heap_events_per_iteration": (_RUN, (FLEET,)),
    "fleet.failures.crashes": (_RUN, (FLEET,)),
    "fleet.failures.rerouted": (_RUN, (FLEET,)),
    # Observability: event stream and critical-path diagnosis.
    "obs.events.emit.calls": (_RUN, (FLEET,)),
    "obs.events.emit.self_share": (_RUN, (FLEET,)),
    "obs.events.recorded": ("peak_rss_mb", (FLEET,)),
    "obs.critical_path.build_attributions.calls": (_RUN, (FLEET,)),
    "obs.critical_path.build_attributions.self_share": (_RUN, (FLEET,)),
    "obs.critical_path.verify_conservation.calls": (_RUN, (FLEET,)),
    "obs.critical_path.verify_conservation.self_share": (_RUN, (FLEET,)),
    # Training grid search.
    "parallel.search.candidate_parallel_configs.calls": (_RUN, (TRAIN,)),
    "parallel.search.candidate_parallel_configs.self_share": (_RUN, (TRAIN,)),
    "systems.evaluate.calls": (_RUN, (TRAIN,)),
    "systems.evaluate.self_share": (_RUN, (TRAIN,)),
    "systems.evaluate.feasible_ratio": (_RUN, (TRAIN,)),
    # Training event simulation.
    "core.schedule.build_slimpipe_schedule.calls": (_RUN, (TRAIN,)),
    "core.schedule.build_slimpipe_schedule.self_share": (_RUN, (TRAIN,)),
    "core.planner.run.self_share": (_RUN, (TRAIN,)),
    "sim.engine.run.calls": (_RUN, (TRAIN,)),
    "sim.engine.run.self_share": (_RUN, (TRAIN,)),
    "sim.engine.passes": (_RUN, (TRAIN,)),
    "sim.providers.duration.calls": (_RUN, (TRAIN,)),
    "sim.providers.duration.self_share": (_RUN, (TRAIN,)),
    "sim.providers.comm_delay.calls": (_RUN, (TRAIN,)),
    "sim.providers.comm_delay.self_share": (_RUN, (TRAIN,)),
    "sim.providers.accountant.calls": (_RUN, (TRAIN,)),
    "sim.providers.accountant.self_share": (_RUN, (TRAIN,)),
    "sim.memory_tracker.profile.calls": (_RUN, (TRAIN,)),
    "sim.memory_tracker.profile.self_share": (_RUN, (TRAIN,)),
    # The tracer itself: traced run_s over untraced run_s, minus 1.
    "trace.overhead": (_RUN, WORKLOADS),
}
