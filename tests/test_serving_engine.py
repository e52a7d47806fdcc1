"""Tests for the serving engines (repro.serving.engine).

Covers the acceptance invariants of the serving subsystem: deterministic
replay, the token-accounting conservation law
(``tokens_admitted == tokens_prefilled + tokens_preempted_requeued``), and
the headline comparison — disaggregated prefill/decode beats the colocated
batcher on p99 TTFT under the bursty long-prompt scenario.
"""

import pytest

from repro.model.config import get_model_config
from repro.obs.events import EventRecorder
from repro.serving.batcher import BatcherConfig
from repro.serving.engine import DisaggregatedEngine, ServingConfig, ServingEngine
from repro.serving.metrics import SLO
from repro.serving.scenarios import get_scenario, run_scenario
from repro.serving.workload import poisson_trace, replay_trace

from test_fast_forward_equivalence import iteration_ends

LLAMA_13B = get_model_config("llama-13b")


def small_config(**overrides):
    defaults = dict(
        num_gpus=1,
        batcher=BatcherConfig(max_batch_tokens=4096, prefill_chunk_tokens=2048),
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(num_gpus=0)
        with pytest.raises(ValueError):
            ServingConfig(memory_utilization=0.0)
        with pytest.raises(ValueError):
            ServingConfig(tpot_cap=-1.0)

    # Each of these used to fail only mid-run, or to finish silently wrong.
    def test_zero_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            ServingConfig(max_iterations=0)

    def test_negative_iteration_overhead_rejected(self):
        with pytest.raises(ValueError, match="iteration_overhead"):
            ServingConfig(iteration_overhead=-1)

    def test_nan_iteration_overhead_rejected(self):
        with pytest.raises(ValueError, match="iteration_overhead"):
            ServingConfig(iteration_overhead=float("nan"))

    def test_nan_tpot_cap_rejected(self):
        with pytest.raises(ValueError, match="tpot_cap"):
            ServingConfig(tpot_cap=float("nan"))

    def test_model_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            ServingEngine(get_model_config("llama-70b"), ServingConfig(num_gpus=1))

    def test_disaggregation_needs_two_gpus(self):
        with pytest.raises(ValueError):
            DisaggregatedEngine(LLAMA_13B, ServingConfig(num_gpus=1))


class TestColocatedEngine:
    def test_simple_trace_completes(self):
        trace = replay_trace([(0.0, 1000, 8), (0.1, 2000, 16), (0.2, 500, 4)])
        result = ServingEngine(LLAMA_13B, small_config()).run(trace, SLO())
        assert result.mode == "colocated"
        assert all(r.finished for r in result.records)
        for record in result.records:
            assert record.first_token_time > record.request.arrival_time
            assert record.finish_time >= record.first_token_time
        assert result.token_accounting_balanced
        assert result.iterations > 0

    def test_deterministic(self):
        trace = poisson_trace(20, 2.0, 1024, 32, seed=3)
        engine = lambda: ServingEngine(LLAMA_13B, small_config())  # noqa: E731
        first = engine().run(trace, SLO())
        second = engine().run(trace, SLO())
        assert [r.finish_time for r in first.records] == [
            r.finish_time for r in second.records
        ]
        assert first.metrics.ttft_p99 == second.metrics.ttft_p99

    def test_token_accounting_under_memory_pressure(self):
        # llama-13b on one GPU leaves room for only ~50K KV tokens; twelve
        # requests of 6K-token max context oversubscribe the pool and force
        # preempt-and-requeue cycles.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)])
        result = ServingEngine(LLAMA_13B, small_config()).run(trace, SLO())
        assert result.preemptions > 0
        assert result.token_accounting_balanced
        assert all(r.finished for r in result.records)
        # Preempted work shows up as re-prefilled context beyond the prompts.
        assert result.tokens_prefilled > sum(r.prompt_tokens for r in trace)

    def test_tpot_cap_throttles_prefill(self):
        # With a TPOT cap, iterations stay short while decodes are running,
        # trading prefill throughput (higher TTFT for late arrivals).
        trace = replay_trace(
            [(0.0, 8192, 256)] + [(0.5, 8192, 64) for _ in range(4)]
        )
        free = ServingEngine(LLAMA_13B, small_config()).run(trace, SLO())
        capped = ServingEngine(
            LLAMA_13B, small_config(tpot_cap=0.015)
        ).run(trace, SLO())
        assert capped.metrics.tpot_p50 < free.metrics.tpot_p50
        assert capped.metrics.ttft_p99 > free.metrics.ttft_p99


class TestDisaggregatedEngine:
    def test_handoff_completes_all_requests(self):
        trace = poisson_trace(15, 2.0, 2048, 32, seed=0)
        recorder = EventRecorder()
        config = small_config(num_gpus=2, observe=recorder)
        result = DisaggregatedEngine(LLAMA_13B, config).run(trace, SLO())
        assert result.mode == "disaggregated"
        assert all(r.finished for r in result.records)
        assert result.token_accounting_balanced
        # Both pools executed iterations.
        assert iteration_ends(recorder).keys() == {0, 1}

    def test_transfer_delay_is_priced(self):
        config = small_config(num_gpus=2)
        engine = DisaggregatedEngine(LLAMA_13B, config)
        short = engine._transfer_time(1024)
        long = engine._transfer_time(65536)
        assert 0 < short < long

    def test_single_output_token_finishes_at_prefill(self):
        trace = replay_trace([(0.0, 1024, 1)])
        result = DisaggregatedEngine(LLAMA_13B, small_config(num_gpus=2)).run(
            trace, SLO()
        )
        record = result.records[0]
        assert record.finished
        assert record.finish_time == record.first_token_time


class TestScenarioAcceptance:
    def test_scenario_run_is_deterministic(self):
        scenario = get_scenario("chat")
        a = run_scenario(scenario, "colocated", seed=0)
        b = run_scenario(scenario, "colocated", seed=0)
        assert a.metrics.ttft_p99 == b.metrics.ttft_p99
        assert a.metrics.output_tokens_per_second == b.metrics.output_tokens_per_second

    def test_disaggregation_beats_colocated_p99_ttft_on_bursty_long(self):
        # The headline claim of prefill/decode disaggregation: on bursts of
        # long prompts over live decode traffic, the colocated engine must
        # throttle prefill to protect decode TPOT, inflating tail TTFT; the
        # dedicated prefill pool does not.
        scenario = get_scenario("bursty-long")
        colocated = run_scenario(scenario, "colocated", seed=0)
        disaggregated = run_scenario(scenario, "disaggregated", seed=0)
        assert colocated.token_accounting_balanced
        assert disaggregated.token_accounting_balanced
        assert (
            disaggregated.metrics.ttft_p99 < colocated.metrics.ttft_p99
        ), "disaggregated prefill/decode should win tail TTFT on bursty-long"
        # The tradeoff: the smaller decode pool pays in inter-token latency.
        assert disaggregated.metrics.tpot_p50 > colocated.metrics.tpot_p50

    def test_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="bursty-long"):
            get_scenario("definitely-not-a-scenario")

    def test_unknown_mode_rejected(self):
        with pytest.raises(KeyError, match="colocated"):
            run_scenario(get_scenario("chat"), "sharded")
