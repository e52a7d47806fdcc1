"""Tests for the sweep engine: expansion, pruning, memoization, fan-out."""

import pytest

from repro.constants import UnknownNameError
from repro.parallel.search import grid_search
from repro.sweep import SweepCache, SweepSpec, run_sweep
from repro.sweep.engine import argmax_stream
from repro.sweep import cache as cache_module


def _scheme_spec(name="scheme-demo"):
    """A tiny, fast spec over the real scheme-point evaluator."""
    return SweepSpec.make(
        name=name,
        evaluator="scheme-point",
        axes={"scheme": ("1f1b", "slimpipe"), "sequence_k": (32, 64)},
        base={
            "model": "llama-13b",
            "tensor_parallel": 8,
            "pipeline_parallel": 8,
            "batch_sequences": 4,
            "virtual_stages": 5,
            "slices_per_stage": 1,
        },
    )


# ---------------------------------------------------------------------------
# argmax_stream (the shared grid-search primitive)
# ---------------------------------------------------------------------------
class TestArgmaxStream:
    def test_empty_stream(self):
        assert argmax_stream([], lambda item: item) == (None, float("-inf"))

    def test_all_infeasible(self):
        assert argmax_stream([1, 2, 3], lambda item: None) == (None, float("-inf"))

    def test_keeps_the_best(self):
        best, value = argmax_stream([3, 1, 4, 1, 5], lambda item: -abs(item - 4))
        assert best == 4 and value == 0

    def test_ties_keep_the_first_item(self):
        best, _ = argmax_stream(["a", "b"], lambda item: 1.0)
        assert best == "a"

    def test_grid_search_delegates(self):
        candidates = [10, 20, 30]
        best, value = grid_search(candidates, lambda c: None if c == 30 else float(c))
        assert best == 20 and value == 20.0


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------
class TestRunSweep:
    def test_serial_results_align_with_points(self):
        result = run_sweep(_scheme_spec())
        assert len(result.points) == len(result.results) == 4
        assert result.stats.total == 4
        assert result.stats.evaluated == 4
        assert result.stats.cache_hits == 0
        by_point = {(p["scheme"], p["sequence_k"]): r for p, r in result}
        assert by_point[("slimpipe", 32)]["feasible"] is True
        # SlimPipe's bubble fraction beats 1F1B's at every context length.
        for seq_k in (32, 64):
            assert (
                by_point[("slimpipe", seq_k)]["bubble_fraction"]
                < by_point[("1f1b", seq_k)]["bubble_fraction"]
            )

    def test_unknown_evaluator_fails_fast(self):
        spec = SweepSpec.make("bad", "no-such-evaluator", axes={"a": (1,)})
        with pytest.raises(UnknownNameError, match="no-such-evaluator"):
            run_sweep(spec)

    def test_workers_match_serial(self):
        spec = _scheme_spec()
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        assert serial.results == parallel.results
        assert parallel.stats.workers == 2

    def test_to_text_renders_axes_and_stats(self):
        text = run_sweep(_scheme_spec()).table().to_text()
        assert "scheme" in text and "sequence_k" in text
        assert "4 points" in text and "bubble_fraction" in text


class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        spec = _scheme_spec()
        cache = SweepCache(tmp_path)
        cold = run_sweep(spec, cache=cache)
        assert cold.stats.evaluated == 4 and cold.stats.cache_hits == 0
        assert cache.path_for(spec).exists()
        warm = run_sweep(spec, cache=cache)
        assert warm.stats.evaluated == 0 and warm.stats.cache_hits == 4
        assert warm.results == cold.results

    def test_no_cache_never_touches_disk(self, tmp_path):
        cache = SweepCache(tmp_path, enabled=False)
        run_sweep(_scheme_spec(), cache=cache)
        assert list(tmp_path.iterdir()) == []

    def test_partial_overlap_evaluates_only_new_points(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(_scheme_spec(), cache=cache)
        wider = SweepSpec.make(
            name="scheme-demo",  # same cache file
            evaluator="scheme-point",
            axes={"scheme": ("1f1b", "slimpipe"), "sequence_k": (32, 64, 128)},
            base=dict(_scheme_spec().base),
        )
        result = run_sweep(wider, cache=cache)
        assert result.stats.cache_hits == 4
        assert result.stats.evaluated == 2

    def test_fingerprint_change_invalidates_the_cache(self, tmp_path, monkeypatch):
        spec = _scheme_spec()
        cache = SweepCache(tmp_path)
        run_sweep(spec, cache=cache)
        monkeypatch.setattr(
            cache_module, "code_fingerprint", lambda: "a-different-world"
        )
        rerun = run_sweep(spec, cache=cache)
        assert rerun.stats.cache_hits == 0
        assert rerun.stats.evaluated == 4

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        spec = _scheme_spec()
        cache = SweepCache(tmp_path)
        cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_text("{not json")
        result = run_sweep(spec, cache=cache)
        assert result.stats.evaluated == 4


class TestPruning:
    def test_memory_model_prunes_impossible_cells(self):
        # Llama 149B's optimizer states alone (~18 bytes/param) dwarf eight
        # 80 GB GPUs: the pruner must reject the cell without grid searching.
        spec = SweepSpec.make(
            name="prune-demo",
            evaluator="fig12-cell",
            axes={"system": ("slimpipe",)},
            base={"model": "llama-149b", "num_gpus": 8, "sequence_k": 64},
        )
        result = run_sweep(spec)
        assert result.stats.pruned == 1 and result.stats.evaluated == 0
        row = result.results[0]
        assert row["pruned"] is True
        assert row["feasible"] is False and row["reason"] == "oom"

    def test_feasible_cells_are_not_pruned(self):
        spec = SweepSpec.make(
            name="prune-demo-2",
            evaluator="fig12-cell",
            axes={"system": ("megatron-lm",)},
            base={"model": "llama-13b", "num_gpus": 32, "sequence_k": 32},
        )
        result = run_sweep(spec)
        assert result.stats.pruned == 0 and result.stats.evaluated == 1
        assert result.results[0]["feasible"] is True
