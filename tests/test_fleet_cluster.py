"""Tests for the fleet cluster engine (repro.fleet.cluster)."""

import pytest

from repro.constants import UnknownNameError
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import GPU_HOURLY_USD, FleetConfig, FleetEngine
from repro.fleet.failures import FailureEvent, FailurePlan
from repro.fleet.scenarios import get_fleet_scenario, run_fleet_scenario
from repro.model.config import get_model_config
from repro.obs.events import EventRecorder
from repro.serving.workload import poisson_trace, replay_trace

from test_fast_forward_equivalence import assert_iterations_accounted, fleet_digest

MODEL = get_model_config("llama-13b")


def _config(**overrides):
    defaults = dict(gpus_per_replica=1, initial_replicas=2, max_replicas=4, sessions=4)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _trace(num=12, seed=0, prompt=512, output=24, rate=4.0):
    return poisson_trace(
        num_requests=num,
        arrival_rate=rate,
        prompt_mean=prompt,
        output_mean=output,
        seed=seed,
    )


class TestFleetConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(gpus_per_replica=0)
        with pytest.raises(ValueError):
            FleetConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            FleetConfig(initial_replicas=9, max_replicas=8)
        with pytest.raises(ValueError):
            FleetConfig(gpu_types=())
        with pytest.raises(UnknownNameError):
            FleetConfig(gpu_types=("tpu-v5",))

    # Each of these used to fail only once ``run`` was under way.
    def test_zero_iteration_cap_rejected(self):
        with pytest.raises(ValueError, match="max_total_iterations"):
            FleetConfig(max_total_iterations=0)

    def test_zero_block_tokens_rejected(self):
        with pytest.raises(ValueError, match="block_tokens"):
            FleetConfig(block_tokens=0)

    def test_nan_tpot_cap_rejected(self):
        with pytest.raises(ValueError, match="tpot_cap"):
            FleetConfig(tpot_cap=float("nan"))

    def test_unpriced_gpu_type_fails_fast(self, monkeypatch):
        # A device registered in GPU_REGISTRY but missing from the price
        # table must be rejected at config time, not after a full run.
        from repro.hardware.gpu import GPU_REGISTRY, HOPPER_80GB

        monkeypatch.setitem(
            GPU_REGISTRY, "hopper-141gb", HOPPER_80GB
        )
        with pytest.raises(ValueError, match="GPU_HOURLY_USD"):
            FleetConfig(gpu_types=("hopper-141gb",))

    def test_gpu_types_cycle_across_replicas(self):
        config = _config(gpu_types=("hopper-80gb", "ampere-80gb"))
        assert [config.gpu_for(i) for i in range(4)] == [
            "hopper-80gb",
            "ampere-80gb",
            "hopper-80gb",
            "ampere-80gb",
        ]

    def test_session_mapping(self):
        config = _config(sessions=4)
        trace = _trace(num=8)
        sessions = {config.session_of(r) for r in trace}
        assert sessions <= {0, 1, 2, 3}
        no_sessions = _config(sessions=0)
        assert no_sessions.session_of(trace[5]) == trace[5].request_id


class TestFleetEngineBasics:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            FleetEngine(MODEL, _config()).run([])

    def test_duplicate_request_ids_rejected(self):
        trace = replay_trace([(0.0, 64, 4), (0.1, 64, 4)])
        duplicated = [trace[0], trace[0]]
        with pytest.raises(ValueError):
            FleetEngine(MODEL, _config()).run(duplicated)

    def test_all_requests_finish_and_accounting_balances(self):
        trace = _trace(num=16)
        result = FleetEngine(MODEL, _config()).run(trace)
        assert result.metrics.num_requests == len(trace)
        assert all(record.finished for record in result.records)
        assert result.token_accounting_balanced
        assert result.tokens_admitted >= sum(r.prompt_tokens for r in trace)
        assert result.iterations > 0

    def test_fixed_fleet_never_scales(self):
        result = FleetEngine(MODEL, _config()).run(_trace())
        assert result.fleet.replicas_provisioned == 2
        assert result.fleet.replicas_peak == 2
        assert result.fleet.scale_up_events == 0
        assert result.fleet.scale_down_events == 0
        assert result.fleet.crashes == 0

    def test_gpu_hours_and_cost_metering(self):
        result = FleetEngine(MODEL, _config()).run(_trace())
        assert result.fleet.gpu_hours > 0
        # Both replicas are provisioned at t=0 and never retire, so they
        # accrue until the last request finishes: 2 replicas x 1 GPU each.
        end_time = max(record.finish_time for record in result.records)
        expected = end_time * 2 / 3600.0
        assert result.fleet.gpu_hours == pytest.approx(expected, rel=1e-6)
        assert result.fleet.cost_usd == pytest.approx(
            result.fleet.gpu_hours * GPU_HOURLY_USD["hopper-80gb"], rel=1e-6
        )

    def test_heterogeneous_fleet_meters_both_device_types(self):
        config = _config(gpu_types=("hopper-80gb", "ampere-80gb"))
        result = FleetEngine(MODEL, config).run(_trace(num=16))
        assert set(result.fleet.gpu_hours_by_type) == {"hopper-80gb", "ampere-80gb"}
        assert result.token_accounting_balanced

    def test_single_replica_fleet_matches_serving_style_run(self):
        # Degenerate fleet: one replica serves everything, nothing re-routes.
        config = _config(initial_replicas=1, min_replicas=1)
        result = FleetEngine(MODEL, config).run(_trace(num=10))
        assert result.fleet.replicas_provisioned == 1
        assert result.metrics.num_requests == 10

    def test_iteration_events_count_every_iteration(self):
        recorder = EventRecorder()
        result = FleetEngine(MODEL, _config(observe=recorder)).run(_trace())
        digest = fleet_digest(result, recorder)
        assert_iterations_accounted(digest)
        assert set(digest["iteration_ends"]) <= {0, 1}

    def test_to_text_renders_both_tables(self):
        result = FleetEngine(MODEL, _config()).run(_trace())
        text = result.to_text("smoke")
        assert "TTFT" in text and "router" in text and "GPU-hours" in text


class TestOutageHold:
    def test_requests_arriving_during_total_outage_are_held(self):
        # Both replicas crash before the trace lands; requests are held at
        # the router until a replica recovers, then everything completes.
        plan = FailurePlan(
            events=(
                FailureEvent(time=0.01, kind="crash", replica_index=0, duration=1.0),
                FailureEvent(time=0.01, kind="crash", replica_index=0, duration=2.0),
            )
        )
        trace = _trace(num=8, rate=20.0)
        result = FleetEngine(MODEL, _config(), failure_plan=plan).run(trace)
        assert result.fleet.crashes == 2
        assert result.metrics.num_requests == len(trace)
        assert all(record.finished for record in result.records)
        assert result.token_accounting_balanced
        # Held requests could only start after the first recovery.
        assert result.metrics.ttft_p99 >= 0.9


class TestScenarioRegistry:
    def test_unknown_scenario_lists_names(self):
        with pytest.raises(UnknownNameError, match="steady-chat"):
            get_fleet_scenario("global-fleet")

    def test_canary_scenario_runs_clean(self):
        scenario = get_fleet_scenario("canary-chat")
        result = run_fleet_scenario(scenario, seed=0)
        assert result.metrics.num_requests == len(scenario.make_trace(0))
        assert result.token_accounting_balanced
        assert result.metrics.goodput_fraction > 0.9

    def test_load_scale_compresses_arrivals(self):
        scenario = get_fleet_scenario("canary-chat")
        base = scenario.make_trace(0)
        compressed = scenario.make_trace(0, load_scale=2.0)
        assert len(base) == len(compressed)
        for slow, fast in zip(base, compressed):
            assert fast.arrival_time == pytest.approx(slow.arrival_time / 2.0)
            assert fast.prompt_tokens == slow.prompt_tokens

    def test_replica_and_autoscale_overrides(self):
        scenario = get_fleet_scenario("steady-chat")
        result = run_fleet_scenario(scenario, replicas=2, autoscale=False, seed=0)
        assert result.fleet.replicas_provisioned == 2
        assert result.fleet.scale_up_events == 0
        assert result.fleet.scale_down_events == 0
