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
    from repro.fleet import cluster
    from repro.serving import engine, metrics
    from repro.sim import providers
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
    }
    originals = {(owner, name): owner.__dict__[name] for owner, name in wrapped}
    compute_metrics = metrics.compute_metrics

    traced = tracer.Tracer()
    try:
        layers.install(traced)
        for owner, name in wrapped:
            assert owner.__dict__[name] is not originals[(owner, name)], name
        assert metrics.compute_metrics is not compute_metrics
    finally:
        traced.uninstall()

    for owner, name in wrapped:
        assert owner.__dict__[name] is originals[(owner, name)], name
    assert metrics.compute_metrics is compute_metrics
