"""Tests for the model-driven cost and memory providers (repro.sim.providers)."""

import pytest

from repro.constants import GIB
from repro.core.schedule import build_slimpipe_schedule
from repro.core.slicing import uniform_slices
from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_13B
from repro.model.costs import PassKind
from repro.model.memory import RecomputeMode, logits_bytes_per_token
from repro.parallel.config import ParallelConfig
from repro.schedules import build_1f1b_schedule
from repro.schedules.base import Pass
from repro.sim.engine import SimulationEngine
from repro.sim.memory_tracker import MemoryTracker
from repro.sim.providers import (
    ModelActivationAccountant,
    ModelCostProvider,
    PipelineModelSpec,
    spec_for_schedule,
)


@pytest.fixture()
def cluster():
    return hopper_cluster(32)


@pytest.fixture()
def parallel():
    return ParallelConfig(
        tensor_parallel_size=8, pipeline_parallel_size=4, num_slices=8
    )


def make_spec(parallel, **kwargs) -> PipelineModelSpec:
    defaults = dict(
        model=LLAMA_13B,
        parallel=parallel,
        sequence_length=32 * 1024,
        num_stages=4,
        num_slices=8,
    )
    defaults.update(kwargs)
    return PipelineModelSpec(**defaults)


def fwd(stage: int, slice_index: int, device: int = 0, num_slices: int = 8) -> Pass:
    return Pass(PassKind.FORWARD, 0, stage, device, slice_index, num_slices)


def bwd(stage: int, slice_index: int, device: int = 0, num_slices: int = 8) -> Pass:
    return Pass(PassKind.BACKWARD, 0, stage, device, slice_index, num_slices)


class TestPipelineModelSpec:
    def test_layers_per_stage(self, parallel):
        spec = make_spec(parallel)
        assert spec.layers_per_stage == 10

    def test_layers_must_divide(self, parallel):
        with pytest.raises(ValueError):
            make_spec(parallel, num_stages=3)

    def test_device_sequence_length_divides_by_cp(self):
        parallel = ParallelConfig(
            tensor_parallel_size=4,
            context_parallel_size=2,
            pipeline_parallel_size=4,
            num_slices=8,
        )
        spec = make_spec(parallel)
        assert spec.device_sequence_length == 16 * 1024

    def test_slice_of_unsliced_pass_covers_sequence(self, parallel):
        spec = make_spec(parallel)
        whole = spec.slice_of(Pass(PassKind.FORWARD, 0, 0, 0))
        assert whole.length == spec.device_sequence_length

    def test_vocab_shards(self, parallel):
        assert make_spec(parallel, vocab_parallel=True).vocab_shards == 4
        assert make_spec(parallel).vocab_shards == 1

    def test_spec_for_schedule_matches_shape(self, parallel):
        schedule = build_slimpipe_schedule(4, 2, 8)
        spec = spec_for_schedule(schedule, LLAMA_13B, parallel, 32 * 1024)
        assert spec.num_stages == schedule.num_stages
        assert spec.num_slices == schedule.num_slices

    def test_exposed_fraction_validated(self, parallel):
        with pytest.raises(ValueError):
            make_spec(parallel, exchange_exposed_fraction=1.5)

    def test_sequence_not_divisible_by_cp_fails_at_construction(self):
        parallel = ParallelConfig(
            tensor_parallel_size=4, context_parallel_size=3, pipeline_parallel_size=4
        )
        with pytest.raises(ValueError, match="not divisible by CP size 3"):
            make_spec(parallel)

    def test_more_slices_than_device_tokens_fails_at_construction(self):
        parallel = ParallelConfig(
            tensor_parallel_size=4, context_parallel_size=2, pipeline_parallel_size=4
        )
        with pytest.raises(ValueError, match="num_slices 9 exceeds the 8 per-device tokens"):
            make_spec(parallel, sequence_length=16, num_slices=9)
        assert make_spec(parallel, sequence_length=16, num_slices=8).num_slices == 8

    def test_slice_of_is_the_uniform_slice(self, parallel):
        spec = make_spec(parallel)
        assert [spec.slice_of(fwd(0, s)) for s in range(8)] == uniform_slices(
            spec.device_sequence_length, 8
        )


class TestModelCostProvider:
    def test_later_slices_cost_more_without_exchange(self, parallel, cluster):
        spec = make_spec(parallel, context_exchange=False)
        costs = ModelCostProvider(spec, cluster)
        early = costs.duration(fwd(1, 0))
        late = costs.duration(fwd(1, 7))
        assert late > early * 1.5

    def test_exchange_equalises_slice_costs(self, parallel, cluster):
        spec = make_spec(parallel, context_exchange=True)
        costs = ModelCostProvider(spec, cluster)
        durations = [costs.duration(fwd(1, s)) for s in range(8)]
        assert max(durations) / min(durations) < 1.01

    def test_exchange_conserves_total_attention_time(self, parallel, cluster):
        plain = ModelCostProvider(make_spec(parallel, context_exchange=False), cluster)
        balanced = ModelCostProvider(make_spec(parallel, context_exchange=True), cluster)
        total_plain = sum(plain.duration(fwd(1, s)) for s in range(8))
        total_balanced = sum(balanced.duration(fwd(1, s)) for s in range(8))
        assert total_balanced == pytest.approx(total_plain, rel=0.02)

    def test_backward_costs_more_than_forward(self, parallel, cluster):
        costs = ModelCostProvider(make_spec(parallel), cluster)
        assert costs.duration(bwd(1, 3)) > costs.duration(fwd(1, 3))

    def test_last_stage_includes_output_layer(self, parallel, cluster):
        costs = ModelCostProvider(make_spec(parallel), cluster)
        # The vocabulary GEMM adds roughly 2*h*V/(per-layer FLOPs * L/p) ~ 20%
        # for Llama 13B with 10 layers per stage.
        assert costs.duration(fwd(3, 0)) > costs.duration(fwd(1, 0)) * 1.1

    def test_vocab_parallel_shrinks_last_stage(self, parallel, cluster):
        classic = ModelCostProvider(make_spec(parallel, vocab_parallel=False), cluster)
        shared = ModelCostProvider(make_spec(parallel, vocab_parallel=True), cluster)
        assert shared.duration(fwd(3, 0)) < classic.duration(fwd(3, 0))

    def test_full_recompute_adds_backward_time(self, parallel, cluster):
        plain = ModelCostProvider(make_spec(parallel), cluster)
        recompute = ModelCostProvider(
            make_spec(parallel, recompute=RecomputeMode.FULL), cluster
        )
        assert recompute.duration(bwd(1, 3)) > plain.duration(bwd(1, 3))
        # Forward passes are unaffected.
        assert recompute.duration(fwd(1, 3)) == pytest.approx(plain.duration(fwd(1, 3)))

    def test_selective_recompute_between_none_and_full(self, parallel, cluster):
        none = ModelCostProvider(make_spec(parallel), cluster).duration(bwd(1, 3))
        selective = ModelCostProvider(
            make_spec(parallel, recompute=RecomputeMode.SELECTIVE), cluster
        ).duration(bwd(1, 3))
        full = ModelCostProvider(
            make_spec(parallel, recompute=RecomputeMode.FULL), cluster
        ).duration(bwd(1, 3))
        assert none < selective < full

    def test_comm_delay_zero_on_same_device(self, parallel, cluster):
        costs = ModelCostProvider(make_spec(parallel), cluster)
        assert costs.comm_delay(fwd(1, 0, device=2), fwd(2, 0, device=2)) == 0.0

    def test_comm_delay_positive_across_devices(self, parallel, cluster):
        costs = ModelCostProvider(make_spec(parallel), cluster)
        delay = costs.comm_delay(fwd(1, 0, device=1), fwd(2, 0, device=2))
        assert delay > 0.0

    def test_exposed_exchange_adds_time_when_not_overlapped(self, parallel, cluster):
        overlapped = ModelCostProvider(
            make_spec(parallel, context_exchange=True, exchange_exposed_fraction=0.0),
            cluster,
        )
        exposed = ModelCostProvider(
            make_spec(parallel, context_exchange=True, exchange_exposed_fraction=1.0),
            cluster,
        )
        assert exposed.duration(fwd(1, 3)) > overlapped.duration(fwd(1, 3))

    def test_durations_positive_for_all_kinds(self, parallel, cluster):
        costs = ModelCostProvider(make_spec(parallel), cluster)
        for kind in PassKind:
            work = Pass(kind, 0, 1, 0, 3, 8)
            assert costs.duration(work) > 0.0


class TestModelActivationAccountant:
    def test_stored_scales_with_slice_length(self, parallel, cluster):
        acct = ModelActivationAccountant(make_spec(parallel), cluster)
        # All slices are uniform here, so use two specs with different n.
        small = ModelActivationAccountant(
            make_spec(parallel.with_slices(16), num_slices=16), cluster
        )
        assert acct.stored_bytes(fwd(1, 0)) == pytest.approx(
            2 * small.stored_bytes(fwd(1, 0, num_slices=16)), rel=1e-6
        )

    def test_backward_stores_nothing(self, parallel, cluster):
        acct = ModelActivationAccountant(make_spec(parallel), cluster)
        assert acct.stored_bytes(bwd(1, 0)) == 0.0

    def test_last_stage_adds_logits(self, parallel, cluster):
        spec = make_spec(parallel)
        acct = ModelActivationAccountant(spec, cluster)
        slice_tokens = spec.slices()[0].length
        expected_logits = slice_tokens * logits_bytes_per_token(
            LLAMA_13B, tensor_parallel_size=8, vocab_parallel_size=1
        )
        delta = acct.stored_bytes(fwd(3, 0)) - acct.stored_bytes(fwd(1, 0))
        assert delta == pytest.approx(expected_logits)

    def test_vocab_parallel_divides_logits(self, parallel, cluster):
        classic = ModelActivationAccountant(make_spec(parallel), cluster)
        shared = ModelActivationAccountant(make_spec(parallel, vocab_parallel=True), cluster)
        classic_logits = classic.stored_bytes(fwd(3, 0)) - classic.stored_bytes(fwd(1, 0))
        shared_logits = shared.stored_bytes(fwd(3, 0)) - shared.stored_bytes(fwd(1, 0))
        assert shared_logits == pytest.approx(classic_logits / 4)

    def test_full_recompute_stores_less_than_none(self, parallel, cluster):
        none = ModelActivationAccountant(make_spec(parallel), cluster)
        full = ModelActivationAccountant(
            make_spec(parallel, recompute=RecomputeMode.FULL), cluster
        )
        assert full.stored_bytes(fwd(1, 0)) < none.stored_bytes(fwd(1, 0))

    def test_full_recompute_has_transient_working_set(self, parallel, cluster):
        full = ModelActivationAccountant(
            make_spec(parallel, recompute=RecomputeMode.FULL), cluster
        )
        assert full.transient_bytes(bwd(1, 0)) > 0.0
        assert full.transient_bytes(fwd(1, 0)) == 0.0

    def test_base_bytes_positive_and_include_model_states(self, parallel, cluster):
        acct = ModelActivationAccountant(make_spec(parallel), cluster)
        bare = ModelActivationAccountant(
            make_spec(parallel), cluster, include_model_states=False
        )
        assert acct.base_bytes(0) > GIB
        assert bare.base_bytes(0) == 0.0


class TestEndToEndWithTracker:
    def test_slimpipe_uses_less_activation_memory_than_1f1b(self, parallel, cluster):
        """Integration: full pipeline memory comparison, SlimPipe vs default 1F1B."""
        seq = 32 * 1024
        slim_schedule = build_slimpipe_schedule(4, 4, 8)
        slim_spec = spec_for_schedule(slim_schedule, LLAMA_13B, parallel, seq)
        slim_peak = max(
            MemoryTracker(
                slim_schedule,
                ModelActivationAccountant(slim_spec, cluster, include_model_states=False),
            ).peak_activation_bytes()
        )

        base_parallel = ParallelConfig(tensor_parallel_size=8, pipeline_parallel_size=4)
        base_schedule = build_1f1b_schedule(4, 4)
        base_spec = spec_for_schedule(base_schedule, LLAMA_13B, base_parallel, seq)
        base_peak = max(
            MemoryTracker(
                base_schedule,
                ModelActivationAccountant(base_spec, cluster, include_model_states=False),
            ).peak_activation_bytes()
        )
        # Eq. 1: default 1F1B accumulates p microbatches of M_a/p = M_a per
        # device, while SlimPipe accumulates (1 + 2(p-1)/n) * M_a/p = 0.4375 M_a
        # here, so the expected ratio is p / (1 + 2(p-1)/n) ~ 2.3.
        expected_ratio = 4 / (1 + 2 * 3 / 8)
        assert slim_peak < base_peak / 2
        assert base_peak / slim_peak == pytest.approx(expected_ratio, rel=0.05)

    def test_simulated_iteration_runs(self, parallel, cluster):
        schedule = build_slimpipe_schedule(4, 2, 8)
        spec = spec_for_schedule(
            schedule, LLAMA_13B, parallel, 32 * 1024, context_exchange=True, vocab_parallel=True
        )
        costs = ModelCostProvider(spec, cluster)
        timeline = SimulationEngine(schedule, costs).run()
        assert timeline.makespan > 0.0
        assert 0.0 <= timeline.bubble_fraction() < 0.5
