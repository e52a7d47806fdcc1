"""Tests for hybrid-parallelism candidate enumeration and grid search."""

import pytest

from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_13B, LLAMA_70B, MIXTRAL_8X7B
from repro.parallel.config import WorkloadConfig
from repro.parallel.search import (
    SearchSpace,
    candidate_parallel_configs,
    divisors,
    grid_search,
)


def workload(seq_k=64, tokens_m=4):
    return WorkloadConfig(
        sequence_length=seq_k * 1024, tokens_per_iteration=tokens_m * 1024 * 1024
    )


class TestDivisors:
    def test_basic(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]

    def test_ceiling(self):
        assert divisors(12, ceiling=4) == [1, 2, 3, 4]

    def test_ceiling_of_one_keeps_the_trivial_divisor(self):
        assert divisors(12, ceiling=1) == [1]

    def test_validation(self):
        with pytest.raises(ValueError, match="got 0"):
            divisors(0)
        with pytest.raises(ValueError, match="got -3"):
            divisors(-3)

    def test_zero_or_negative_ceiling_is_loud_not_empty(self):
        # A ceiling below 1 used to return [] silently, which downstream
        # turns into "no-configuration" everywhere; it must raise instead.
        with pytest.raises(ValueError, match="ceiling must be >= 1"):
            divisors(12, ceiling=0)
        with pytest.raises(ValueError, match="ceiling must be >= 1"):
            divisors(12, ceiling=-2)


class TestCandidateEnumeration:
    def test_configs_use_whole_cluster(self):
        cluster = hopper_cluster(64)
        for cfg in candidate_parallel_configs(LLAMA_13B, cluster, workload()):
            assert cfg.world_size == 64

    def test_tensor_parallel_stays_in_node_and_divides_heads(self):
        cluster = hopper_cluster(64)
        for cfg in candidate_parallel_configs(LLAMA_70B, cluster, workload()):
            assert cfg.tensor_parallel_size <= 8
            assert LLAMA_70B.num_attention_heads % cfg.tensor_parallel_size == 0
            # GQA: TP cannot exceed the number of KV groups.
            assert cfg.tensor_parallel_size <= LLAMA_70B.kv_groups

    def test_pipeline_divides_layers(self):
        cluster = hopper_cluster(64)
        for cfg in candidate_parallel_configs(LLAMA_13B, cluster, workload()):
            assert LLAMA_13B.num_layers % cfg.pipeline_parallel_size == 0
            assert LLAMA_13B.num_layers % cfg.total_stages == 0

    def test_batch_divides_over_dp(self):
        cluster = hopper_cluster(64)
        wl = workload(seq_k=128)
        for cfg in candidate_parallel_configs(LLAMA_13B, cluster, wl):
            assert wl.global_batch_sequences % cfg.data_parallel_size == 0

    def test_moe_expert_parallel_divides_experts(self):
        cluster = hopper_cluster(64)
        for cfg in candidate_parallel_configs(MIXTRAL_8X7B, cluster, workload()):
            assert MIXTRAL_8X7B.num_experts % cfg.expert_parallel_size == 0
            assert cfg.expert_parallel_size <= cfg.data_parallel_size * cfg.context_parallel_size

    def test_slices_are_multiples_of_pipeline(self):
        cluster = hopper_cluster(64)
        configs = list(
            candidate_parallel_configs(LLAMA_13B, cluster, workload(), use_slices=True)
        )
        assert configs
        for cfg in configs:
            assert cfg.num_slices is not None
            assert cfg.num_slices % cfg.pipeline_parallel_size == 0

    def test_interleave_divisibility_filter(self):
        cluster = hopper_cluster(128)
        wl = workload(seq_k=512)  # 8 sequences per iteration -> small m
        strict = list(
            candidate_parallel_configs(
                LLAMA_13B, cluster, wl, require_interleave_divisibility=True
            )
        )
        relaxed = list(
            candidate_parallel_configs(
                LLAMA_13B, cluster, wl, require_interleave_divisibility=False
            )
        )
        assert len(strict) <= len(relaxed)
        for cfg in strict:
            if cfg.virtual_pipeline_size > 1:
                m = wl.global_batch_sequences // cfg.data_parallel_size
                assert m % cfg.pipeline_parallel_size == 0

    def test_no_pipeline_option(self):
        cluster = hopper_cluster(8)
        configs = list(
            candidate_parallel_configs(LLAMA_13B, cluster, workload(), use_pipeline=False)
        )
        assert configs
        assert all(cfg.pipeline_parallel_size == 1 for cfg in configs)

    def test_empty_when_cluster_too_small_for_batch(self):
        """Sequences per iteration < DP size for every config -> nothing viable."""
        cluster = hopper_cluster(4096)
        wl = WorkloadConfig(sequence_length=2048 * 1024, tokens_per_iteration=4 * 1024 * 1024)
        configs = list(candidate_parallel_configs(LLAMA_13B, cluster, wl))
        # 2 sequences over >= 4096/(8*32) = 16 DP replicas can never divide evenly.
        assert all(cfg.data_parallel_size <= 2 for cfg in configs)

    def test_search_space_limits_respected(self):
        cluster = hopper_cluster(64)
        space = SearchSpace(max_pipeline_parallel=4, max_virtual_stages=2, slice_multipliers=(1,))
        for cfg in candidate_parallel_configs(
            LLAMA_13B, cluster, workload(), space, use_slices=True
        ):
            assert cfg.pipeline_parallel_size <= 4
            assert cfg.virtual_pipeline_size <= 2
            assert cfg.num_slices == cfg.pipeline_parallel_size


class TestSearchSpaceValidation:
    """An invalid search space fails when it is built, with a named reason."""

    @pytest.mark.parametrize(
        "name",
        ["max_tensor_parallel", "max_context_parallel", "max_pipeline_parallel", "max_virtual_stages"],
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_ceiling_below_one(self, name, value):
        with pytest.raises(ValueError, match=f"SearchSpace.{name} must be >= 1, got {value}"):
            SearchSpace(**{name: value})

    def test_empty_slice_multipliers(self):
        with pytest.raises(ValueError, match="slice_multipliers must not be empty"):
            SearchSpace(slice_multipliers=())

    @pytest.mark.parametrize("multipliers", [(0,), (1, -2)])
    def test_slice_multiplier_below_one(self, multipliers):
        with pytest.raises(ValueError, match="slice_multipliers must all be >= 1"):
            SearchSpace(slice_multipliers=multipliers)

    def test_smallest_valid_space(self):
        space = SearchSpace(
            max_tensor_parallel=1,
            max_context_parallel=1,
            max_pipeline_parallel=1,
            max_virtual_stages=1,
            slice_multipliers=(1,),
        )
        configs = list(
            candidate_parallel_configs(LLAMA_13B, hopper_cluster(8), workload(), space, use_slices=True)
        )
        assert configs
        assert all(cfg.world_size == 8 and cfg.data_parallel_size == 8 for cfg in configs)


class TestGridSearch:
    def test_picks_maximum(self):
        cluster = hopper_cluster(32)
        candidates = list(candidate_parallel_configs(LLAMA_13B, cluster, workload()))
        best, value = grid_search(candidates, lambda c: float(c.pipeline_parallel_size))
        assert best is not None
        assert value == max(c.pipeline_parallel_size for c in candidates)

    def test_all_infeasible(self):
        best, value = grid_search([], lambda c: 1.0)
        assert best is None
        assert value == float("-inf")

    def test_none_objective_skipped(self):
        cluster = hopper_cluster(32)
        candidates = list(candidate_parallel_configs(LLAMA_13B, cluster, workload()))
        best, _ = grid_search(candidates, lambda c: None)
        assert best is None
