"""The traced benchmark's wrappers still find every entry point they wrap.

``perfbench/layers.py`` wraps simulator methods by ``cls.__dict__[name]``
and functions by identity, so a refactor that renames an entry point or
moves it into a base class breaks ``perfbench/run.py --trace 1``.  This test
installs the wrappers, checks a sample of them took, and uninstalls them,
leaving the simulator exactly as shipped.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracer

    yield layers, tracer
    # The harness's flat module names must not leak into later tests.
    for name in ("layers", "tracer", "catalog"):
        sys.modules.pop(name, None)


def test_install_and_uninstall_every_traced_entry_point(perfbench_modules):
    layers, tracer = perfbench_modules
    from repro.core import planner, schedule
    from repro.fleet import cluster
    from repro.serving import engine, metrics
    from repro.sim import engine as sim_engine
    from repro.sim import memory_tracker, providers
    from repro.systems import pipeline_systems

    wrapped = {
        (metrics.StreamingMetrics, "observe"),
        (metrics.StreamingMetrics, "finalize"),
        (engine._Pool, "iteration_time"),
        (engine._Pool, "prefill_budget"),
        (engine._Pool, "decode_iteration_time"),
        (engine._Pool, "decode_stretch_length"),
        (engine._Pool, "run"),
        (cluster.FleetEngine, "run"),
        (providers.ModelCostProvider, "duration"),
        (providers.ModelCostProvider, "comm_delay"),
        (providers.ModelActivationAccountant, "stored_bytes"),
        (pipeline_systems._PipelineSystem, "evaluate"),
        (planner.SlimPipePlanner, "run"),
        (sim_engine.SimulationEngine, "run"),
        (memory_tracker.MemoryTracker, "profile"),
    }
    originals = {(owner, name): owner.__dict__[name] for owner, name in wrapped}
    compute_metrics = metrics.compute_metrics
    # Functions are wrapped under every module binding, the planner's too.
    build_slimpipe_schedule = schedule.build_slimpipe_schedule
    assert planner.build_slimpipe_schedule is build_slimpipe_schedule

    traced = tracer.Tracer()
    try:
        layers.install(traced)
        for owner, name in wrapped:
            assert owner.__dict__[name] is not originals[(owner, name)], name
        assert metrics.compute_metrics is not compute_metrics
        assert schedule.build_slimpipe_schedule is not build_slimpipe_schedule
        assert planner.build_slimpipe_schedule is not build_slimpipe_schedule
    finally:
        traced.uninstall()

    for owner, name in wrapped:
        assert owner.__dict__[name] is originals[(owner, name)], name
    assert metrics.compute_metrics is compute_metrics
    assert schedule.build_slimpipe_schedule is build_slimpipe_schedule
    assert planner.build_slimpipe_schedule is build_slimpipe_schedule


def test_both_fleet_queues_pop_through_the_counted_heapq(perfbench_modules):
    # perfbench counts fleet queue events by replacing ``cluster.heapq``; a
    # queue popped through any other binding would silently drop out of
    # ``fleet.cluster.heap_events``.
    layers, tracer = perfbench_modules
    from repro.fleet import cluster
    from repro.fleet.failures import FailureEvent, FailurePlan
    from repro.model.config import get_model_config
    from repro.serving.workload import poisson_trace

    popped = []

    class QueueSpy:
        def __init__(self, inner):
            self._inner = inner

        def heappop(self, heap):
            popped.append(id(heap))
            return self._inner.heappop(heap)

        def __getattr__(self, attribute):
            return getattr(self._inner, attribute)

    trace = poisson_trace(
        num_requests=12, arrival_rate=4.0, prompt_mean=512, output_mean=48, seed=0
    )
    plan = FailurePlan(
        events=(FailureEvent(time=1.0, kind="slow", replica_index=0, duration=0.5, slowdown=2.0),)
    )
    engine = cluster.FleetEngine(
        get_model_config("llama-13b"),
        cluster.FleetConfig(gpus_per_replica=1, initial_replicas=2),
        failure_plan=plan,
    )
    traced = tracer.Tracer()
    try:
        layers.install(traced)
        assert isinstance(cluster.heapq, tracer.CountingHeapq)
        traced.patch_attribute(cluster, "heapq", QueueSpy(cluster.heapq))
        result = engine.run(trace)
    finally:
        traced.uninstall()

    assert set(popped) == {id(engine._events), id(engine._completions)}
    assert traced.counters["fleet.cluster.heap_events"] == len(popped)
    # Folded stretch steps pop nothing, so there are fewer pops than steps.
    assert len(popped) < result.iterations
