"""Tests for the golden-metrics harness itself (record, check, perturb).

``tests/test_goldens.py`` asserts the committed goldens still hold; this
module asserts the *harness* does its job — tolerances, missing/extra
metrics, fingerprint staleness, the headline guarantee that perturbing a
modelled constant makes the check fail, and that a source-only edit moves
the sweep cache key but no golden.
"""

import dataclasses
import inspect

import pytest

import repro.analysis.figures as figures
import repro.hardware.gpu as gpu_module
import repro.sweep.golden as golden_module
from repro.constants import UnknownNameError
from repro.hardware.topology import ClusterTopology
from repro.sweep import (
    SweepCache,
    check_golden,
    code_fingerprint,
    constants_fingerprint,
    record_golden,
)
from repro.sweep.golden import GoldenDefinition, golden_path
from repro.sweep.spec import SweepSpec


def _definition(values, name="unit", rtol=1e-6, atol=1e-9):
    return GoldenDefinition(name=name, compute=lambda: dict(values), rtol=rtol, atol=atol)


class TestRecordAndCheck:
    def test_roundtrip(self, tmp_path):
        definition = _definition({"a": 1.0, "b": "label", "c": 3})
        path = record_golden("unit", directory=tmp_path, definition=definition)
        assert path == golden_path("unit", tmp_path) and path.exists()
        check = check_golden("unit", directory=tmp_path, definition=definition)
        assert check.ok, check.report()

    def test_missing_file_fails(self, tmp_path):
        check = check_golden(
            "unit", directory=tmp_path, definition=_definition({"a": 1.0})
        )
        assert not check.ok
        assert any("missing" in failure for failure in check.failures)

    def test_drift_outside_tolerance_fails(self, tmp_path):
        record_golden("unit", directory=tmp_path, definition=_definition({"a": 100.0}))
        drifted = _definition({"a": 100.0 * (1 + 1e-4)})
        check = check_golden("unit", directory=tmp_path, definition=drifted)
        assert not check.ok and "a:" in check.failures[0]

    def test_drift_within_tolerance_passes(self, tmp_path):
        record_golden("unit", directory=tmp_path, definition=_definition({"a": 100.0}))
        nudged = _definition({"a": 100.0 * (1 + 1e-8)})
        assert check_golden("unit", directory=tmp_path, definition=nudged).ok

    def test_string_and_bool_metrics_compare_exactly(self, tmp_path):
        record_golden(
            "unit", directory=tmp_path, definition=_definition({"s": "x", "f": True})
        )
        flipped = _definition({"s": "x", "f": False})
        check = check_golden("unit", directory=tmp_path, definition=flipped)
        assert not check.ok and "f:" in check.failures[0]

    def test_appearing_and_disappearing_metrics_fail(self, tmp_path):
        record_golden("unit", directory=tmp_path, definition=_definition({"a": 1.0}))
        changed = _definition({"b": 2.0})
        check = check_golden("unit", directory=tmp_path, definition=changed)
        assert not check.ok
        report = check.report()
        assert "disappeared" in report and "new metric" in report

    def test_unknown_golden_name(self):
        with pytest.raises(UnknownNameError, match="available"):
            check_golden("no-such-golden")


class TestConstantPerturbation:
    """The acceptance guarantee: perturbing a constant fails the check."""

    def test_perturbing_gpu_throughput_fails_the_metrics(self, tmp_path, monkeypatch):
        record_golden("fig07", directory=tmp_path)
        assert check_golden("fig07", directory=tmp_path).ok

        real_cluster = figures.hopper_cluster

        def degraded_cluster(num_gpus, gpus_per_node=8):
            cluster = real_cluster(num_gpus, gpus_per_node)
            slower_gpu = dataclasses.replace(
                cluster.gpu, peak_flops=cluster.gpu.peak_flops * 1.05
            )
            return ClusterTopology(
                num_nodes=cluster.num_nodes,
                gpus_per_node=cluster.gpus_per_node,
                gpu=slower_gpu,
            )

        monkeypatch.setattr(figures, "hopper_cluster", degraded_cluster)
        check = check_golden("fig07", directory=tmp_path)
        assert not check.ok
        assert any("makespan" in failure for failure in check.failures), check.report()

    def test_perturbing_a_fingerprinted_constant_fails_the_check(
        self, tmp_path, monkeypatch
    ):
        record_golden("fig08", directory=tmp_path)
        original = code_fingerprint()
        bigger_gpu = dataclasses.replace(
            gpu_module.HOPPER_80GB, memory_bytes=gpu_module.HOPPER_80GB.memory_bytes * 2
        )
        try:
            monkeypatch.setattr(gpu_module, "HOPPER_80GB", bigger_gpu)
            code_fingerprint.cache_clear()  # memoized per process
            assert code_fingerprint() != original
            check = check_golden("fig08", directory=tmp_path)
            assert not check.ok
            assert any("fingerprint" in failure for failure in check.failures)
        finally:
            monkeypatch.undo()
            code_fingerprint.cache_clear()

    def test_source_only_change_keeps_goldens_but_moves_the_cache_key(
        self, tmp_path, monkeypatch
    ):
        definition = _definition({"a": 1.0})
        record_golden("unit", directory=tmp_path, definition=definition)
        spec = SweepSpec(name="unit", evaluator="unit", axes=())
        cache = SweepCache(tmp_path / "cache")
        cache.store(spec, {"point": {"a": 1.0}})
        assert cache.load(spec) == {"point": {"a": 1.0}}
        original_code = code_fingerprint()
        original_constants = constants_fingerprint()
        real_getsource = inspect.getsource
        try:
            # Every fingerprinted module gains a comment: a pure source edit.
            monkeypatch.setattr(
                inspect, "getsource", lambda obj: real_getsource(obj) + "# edited\n"
            )
            code_fingerprint.cache_clear()
            assert code_fingerprint() != original_code
            assert constants_fingerprint() == original_constants
            check = check_golden("unit", directory=tmp_path, definition=definition)
            assert check.ok, check.report()
            assert cache.load(spec) == {}
        finally:
            monkeypatch.undo()
            code_fingerprint.cache_clear()

    def test_report_points_at_regeneration(self, tmp_path):
        record_golden("unit", directory=tmp_path, definition=_definition({"a": 1.0}))
        check = check_golden(
            "unit", directory=tmp_path, definition=_definition({"a": 2.0})
        )
        assert "sweep golden --regenerate" in check.report()


class TestRegistryHygiene:
    def test_every_golden_has_a_description(self):
        for name, definition in golden_module.GOLDEN_REGISTRY.items():
            assert definition.name == name
            assert definition.description
