"""Decode fast-forwarding must be invisible: byte-identical to the naive stepper.

The serving and fleet engines coalesce stable pure-decode stretches
(``fast_forward=True``, the default) instead of stepping them one heap pop /
loop pass at a time.  The optimization is only allowed to change wall-clock
time, never a simulated number, so this suite pins *bit* equality — every
timestamp, latency percentile, KV-utilization integral, counter and timeline
span — between the fast path and the naive reference oracle:

* across every registered serving scenario in both deployments,
* across every registered fleet scenario (autoscaling, failure injection,
  heterogeneous GPUs and all of their event interleavings included),
* over hypothesis-generated random traces, with preemption pressure, both
  admission policies and a decode-only pool in the mix, and
* at the pricing layer: the component-pair fast path must reproduce
  ``CostModel.time_of`` exactly.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY, run_fleet_scenario
from repro.model.config import get_model_config
from repro.model.costs import PassKind
from repro.model.flops import FlopsBreakdown
from repro.serving.batcher import BatcherConfig
from repro.serving.engine import ServingConfig, ServingEngine, _Pool
from repro.serving.metrics import SLO
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario
from repro.serving.workload import replay_trace

LLAMA_13B = get_model_config("llama-13b")


def serving_digest(result):
    """Everything a ServingResult observed, as one comparable value."""
    return {
        "mode": result.mode,
        "metrics": asdict(result.metrics),
        "records": [
            (r.request.request_id, r.first_token_time, r.finish_time, r.preemptions)
            for r in result.records
        ],
        "iterations": result.iterations,
        "kv_capacity_tokens": result.kv_capacity_tokens,
        "tokens_admitted": result.tokens_admitted,
        "tokens_prefilled": result.tokens_prefilled,
        "tokens_preempted_requeued": result.tokens_preempted_requeued,
        "preemptions": result.preemptions,
        "spans": [(s.device, s.start, s.end) for s in result.timeline.spans],
    }


def fleet_digest(result):
    """Everything a FleetResult observed; spans need ``collect_timeline=True``."""
    spans = result.timeline.spans if result.timeline is not None else []
    return {
        "metrics": asdict(result.metrics),
        "fleet": asdict(result.fleet),
        "records": [
            (r.request.request_id, r.first_token_time, r.finish_time, r.preemptions)
            for r in result.records
        ],
        "iterations": result.iterations,
        "tokens_admitted": result.tokens_admitted,
        "tokens_prefilled": result.tokens_prefilled,
        "tokens_preempted_requeued": result.tokens_preempted_requeued,
        "preemptions": result.preemptions,
        "spans": [(s.device, s.start, s.end, s.work.microbatch) for s in spans],
    }


@pytest.mark.parametrize(
    "scenario_name",
    sorted(name for name in SCENARIO_REGISTRY if not name.startswith("massive-")),
)
@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_serving_scenarios_byte_identical(scenario_name, mode):
    scenario = SCENARIO_REGISTRY[scenario_name]
    fast = run_scenario(scenario, mode, seed=0)
    naive = run_scenario(scenario, mode, seed=0, fast_forward=False)
    assert serving_digest(fast) == serving_digest(naive)


@pytest.mark.parametrize(
    "scenario_name", sorted(name for name in SCENARIO_REGISTRY if name.startswith("massive-"))
)
def test_massive_scenarios_byte_identical_on_slice(scenario_name):
    # The massive scenarios are too big to replay in full against the naive
    # stepper, so pin equivalence on a truncated slice with records retained
    # (record-level digests need the full per-request state).
    scenario = SCENARIO_REGISTRY[scenario_name]
    fast = run_scenario(
        scenario, seed=0, retain_records=True, max_requests=1500
    )
    naive = run_scenario(
        scenario, seed=0, retain_records=True, max_requests=1500, fast_forward=False
    )
    assert fast.records, "slice produced no finished requests"
    assert serving_digest(fast) == serving_digest(naive)


@pytest.mark.parametrize("scenario_name", sorted(FLEET_SCENARIO_REGISTRY))
def test_fleet_scenarios_byte_identical(scenario_name):
    scenario = FLEET_SCENARIO_REGISTRY[scenario_name]
    fast = run_fleet_scenario(scenario, seed=0, collect_timeline=True)
    naive = run_fleet_scenario(scenario, seed=0, collect_timeline=True, fast_forward=False)
    assert fast.timeline.spans, "the fleet run recorded no iteration spans"
    assert fleet_digest(fast) == fleet_digest(naive)


def _run_both(trace, policy="fcfs", tpot_cap=None):
    def engine(fast_forward):
        config = ServingConfig(
            num_gpus=1,
            batcher=BatcherConfig(
                max_batch_tokens=4096, prefill_chunk_tokens=2048, policy=policy
            ),
            tpot_cap=tpot_cap,
            fast_forward=fast_forward,
        )
        return ServingEngine(LLAMA_13B, config).run(trace, SLO())

    return serving_digest(engine(True)), serving_digest(engine(False))


class TestRandomTraces:
    """Hypothesis property: equivalence holds for arbitrary small traces."""

    @settings(max_examples=25, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
                st.integers(min_value=1, max_value=6000),
                st.integers(min_value=1, max_value=600),
            ),
            min_size=1,
            max_size=12,
        ),
        priority_policy=st.booleans(),
    )
    def test_equivalent_on_random_traces(self, triples, priority_policy):
        trace = replay_trace(sorted(triples))
        fast, naive = _run_both(
            trace, policy="priority" if priority_policy else "fcfs"
        )
        assert fast == naive

    def test_equivalent_under_preemption_pressure(self):
        # Oversubscribes the 1-GPU llama-13b KV pool: preempt/requeue cycles
        # interrupt decode stretches and the bound must stop exactly at the
        # first unsatisfiable block growth.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)])
        fast, naive = _run_both(trace)
        assert fast["preemptions"] > 0
        assert fast == naive

    def test_equivalent_with_tpot_cap(self):
        trace = replay_trace([(0.0, 8192, 256)] + [(0.5, 8192, 64)] * 4)
        fast, naive = _run_both(trace, tpot_cap=0.015)
        assert fast == naive

    def test_naive_knob_actually_disables_fast_forward(self):
        # The oracle must not silently take the fast path: a long single
        # decode costs the naive stepper one planning pass per iteration,
        # which the fast path's pricing cache makes observable here.
        trace = replay_trace([(0.0, 64, 512)])
        config = ServingConfig(num_gpus=1, fast_forward=False)
        engine = ServingEngine(LLAMA_13B, config)
        assert engine.pool.decode_stretch_length() == 0
        result = engine.run(trace, SLO())
        assert result.iterations >= 512


class TestPairPricing:
    """The inlined component-pair pricing is bit-equal to CostModel.time_of."""

    @settings(max_examples=60, deadline=None)
    @given(
        linear=st.floats(min_value=0.0, max_value=1e16, allow_nan=False),
        attention=st.floats(min_value=0.0, max_value=1e16, allow_nan=False),
        batch_tokens=st.integers(min_value=0, max_value=1 << 20),
    )
    def test_pair_time_matches_time_of(self, linear, attention, batch_tokens):
        pool = _Pool(LLAMA_13B, 2, ServingConfig(num_gpus=2))
        flops = FlopsBreakdown(linear=linear, attention=attention)
        if flops.total <= 0:
            reference = pool.config.iteration_overhead
        else:
            reference = (
                pool.costs.time_of(
                    flops * (1.0 / pool.num_gpus), PassKind.FORWARD, tokens=batch_tokens
                )
                + pool.config.iteration_overhead
            )
        assert pool._pair_time(linear, attention, batch_tokens) == reference
