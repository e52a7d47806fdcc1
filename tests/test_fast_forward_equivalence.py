"""Decode fast-forwarding must be invisible: byte-identical to the naive stepper.

The serving and fleet engines coalesce stable pure-decode stretches
(``fast_forward=True``, the default) instead of stepping them one heap pop /
loop pass at a time.  The optimization is only allowed to change wall-clock
time, never a simulated number, so this suite pins *bit* equality — every
timestamp, latency percentile, KV-utilization integral, counter and
iteration end the event stream shows — between the fast path and the naive
reference oracle:

* across every registered serving scenario in both deployments,
* across every registered fleet scenario (autoscaling, failure injection,
  heterogeneous GPUs and all of their event interleavings included),
* over hypothesis-generated random traces, with preemption pressure, both
  admission policies and a decode-only pool in the mix, and
* at the pricing layer: the component-pair fast path must reproduce
  ``CostModel.time_of`` exactly.

The event stream carries two oracles of its own.  (a) *Accounting*: the
ITERATION events plus the steps of the STRETCH events are every iteration
the result counts, fast or naive.  (b) *Boundaries*: a naive run records one
ITERATION per iteration and a fast run one STRETCH per decode stretch, so
every event of the fast run must end, to the bit, where the naive run's
iteration of the same per-track count ends.
"""

from dataclasses import asdict
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY, run_fleet_scenario
from repro.model.config import get_model_config
from repro.model.costs import PassKind
from repro.model.flops import FlopsBreakdown
from repro.obs.events import CRASH, ITERATION, STRETCH, EventRecorder
from repro.serving.batcher import BatcherConfig
from repro.serving.engine import ServingConfig, ServingEngine, _Pool
from repro.serving.metrics import SLO
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario
from repro.serving.workload import replay_trace

LLAMA_13B = get_model_config("llama-13b")


def iteration_ends(recorder):
    """Per track, ``(iterations so far, end, cut, payload)`` per ITERATION/STRETCH.

    ``payload`` is an ITERATION's data (duration, batch, queue and KV
    utilization) and ``None`` for a STRETCH.  A STRETCH is ``cut`` when it
    was emitted at a CRASH on its track: the crash aborted the stretch,
    which rolls up only its completed steps, so the last of them ended at
    or before the crash time the event carries.
    """
    crashes = {(event.track, event.time) for event in recorder.events if event.kind == CRASH}
    ends = {}
    for event in recorder.events:
        if event.kind == ITERATION:
            steps, payload = 1, event.data
        elif event.kind == STRETCH:
            steps, payload = event.data[0], None
        else:
            continue
        track = ends.setdefault(event.track, [])
        done = track[-1][0] if track else 0
        cut = event.kind == STRETCH and (event.track, event.time) in crashes
        track.append((done + steps, event.time, cut, payload))
    return ends


def assert_iterations_accounted(digest):
    """Oracle (a): ITERATION events plus STRETCH steps are every iteration."""
    counted = sum(ends[-1][0] for ends in digest["iteration_ends"].values())
    assert counted == digest["iterations"]


def assert_same_iteration_ends(fast, naive):
    """Oracle (b): each fast event ends where the naive run's iteration does.

    The naive run records one ITERATION per iteration, so its ``n``-th event
    on a track ends that track's ``n``-th iteration.  A fast ITERATION is
    that same iteration, so its payload matches too.
    """
    assert fast.keys() == naive.keys()
    for track, boundaries in fast.items():
        reference = naive[track]
        assert [done for done, *_ in reference] == list(range(1, len(reference) + 1))
        assert boundaries[-1][0] == len(reference)
        for done, end, cut, payload in boundaries:
            _, naive_end, _, naive_payload = reference[done - 1]
            if cut:
                assert naive_end <= end
            else:
                assert naive_end == end
            if payload is not None:
                assert payload == naive_payload


def assert_fast_matches_naive(fast, naive):
    """Two digests agree: iteration ends by oracle (b), the rest exactly."""
    fast, naive = dict(fast), dict(naive)
    assert_same_iteration_ends(fast.pop("iteration_ends"), naive.pop("iteration_ends"))
    assert fast == naive


def serving_digest(result, recorder=None):
    """Everything a ServingResult (and, given, its event stream) observed."""
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
        "iteration_ends": iteration_ends(recorder) if recorder is not None else None,
    }


def fleet_digest(result, recorder=None):
    """Everything a FleetResult (and, given, its event stream) observed."""
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
        "iteration_ends": iteration_ends(recorder) if recorder is not None else None,
    }


def _serving_scenario_digest(scenario_name, mode="colocated", **overrides):
    recorder = EventRecorder()
    result = run_scenario(
        SCENARIO_REGISTRY[scenario_name], mode, seed=0, observe=recorder, **overrides
    )
    return serving_digest(result, recorder)


@lru_cache(maxsize=None)
def _serving_scenario_pair(scenario_name, mode):
    """The fast and naive digests of one serving scenario at seed 0."""
    return (
        _serving_scenario_digest(scenario_name, mode),
        _serving_scenario_digest(scenario_name, mode, fast_forward=False),
    )


@lru_cache(maxsize=None)
def _fleet_scenario_pair(scenario_name):
    """The fast and naive digests of one fleet scenario at seed 0."""
    digests = []
    for fast_forward in (True, False):
        recorder = EventRecorder()
        result = run_fleet_scenario(
            FLEET_SCENARIO_REGISTRY[scenario_name],
            seed=0,
            fast_forward=fast_forward,
            observe=recorder,
        )
        digests.append(fleet_digest(result, recorder))
    return tuple(digests)


_NON_MASSIVE_SCENARIOS = sorted(
    name for name in SCENARIO_REGISTRY if not name.startswith("massive-")
)


@pytest.mark.parametrize("scenario_name", _NON_MASSIVE_SCENARIOS)
@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_serving_iterations_accounted_by_events(scenario_name, mode):
    for digest in _serving_scenario_pair(scenario_name, mode):
        assert_iterations_accounted(digest)


@pytest.mark.parametrize("scenario_name", sorted(FLEET_SCENARIO_REGISTRY))
def test_fleet_iterations_accounted_by_events(scenario_name):
    for digest in _fleet_scenario_pair(scenario_name):
        assert_iterations_accounted(digest)


@pytest.mark.parametrize("scenario_name", _NON_MASSIVE_SCENARIOS)
@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_serving_scenarios_byte_identical(scenario_name, mode):
    assert_fast_matches_naive(*_serving_scenario_pair(scenario_name, mode))


@pytest.mark.parametrize(
    "scenario_name", sorted(name for name in SCENARIO_REGISTRY if name.startswith("massive-"))
)
def test_massive_scenarios_byte_identical_on_slice(scenario_name):
    # The massive scenarios are too big to replay in full against the naive
    # stepper, so pin equivalence on a truncated slice with records retained
    # (record-level digests need the full per-request state).
    fast = _serving_scenario_digest(scenario_name, retain_records=True, max_requests=1500)
    naive = _serving_scenario_digest(
        scenario_name, retain_records=True, max_requests=1500, fast_forward=False
    )
    assert fast["records"], "slice produced no finished requests"
    assert_fast_matches_naive(fast, naive)


@pytest.mark.parametrize("scenario_name", sorted(FLEET_SCENARIO_REGISTRY))
def test_fleet_scenarios_byte_identical(scenario_name):
    fast, naive = _fleet_scenario_pair(scenario_name)
    assert fast["iteration_ends"], "the fleet run recorded no iteration events"
    assert_fast_matches_naive(fast, naive)


def _run_both(trace, policy="fcfs", tpot_cap=None):
    def engine(fast_forward):
        recorder = EventRecorder()
        config = ServingConfig(
            num_gpus=1,
            batcher=BatcherConfig(
                max_batch_tokens=4096, prefill_chunk_tokens=2048, policy=policy
            ),
            tpot_cap=tpot_cap,
            fast_forward=fast_forward,
            observe=recorder,
        )
        return serving_digest(ServingEngine(LLAMA_13B, config).run(trace, SLO()), recorder)

    return engine(True), engine(False)


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
        assert_fast_matches_naive(fast, naive)

    def test_equivalent_under_preemption_pressure(self):
        # Oversubscribes the 1-GPU llama-13b KV pool: preempt/requeue cycles
        # interrupt decode stretches and the bound must stop exactly at the
        # first unsatisfiable block growth.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)])
        fast, naive = _run_both(trace)
        assert fast["preemptions"] > 0
        assert_fast_matches_naive(fast, naive)

    def test_equivalent_with_tpot_cap(self):
        trace = replay_trace([(0.0, 8192, 256)] + [(0.5, 8192, 64)] * 4)
        fast, naive = _run_both(trace, tpot_cap=0.015)
        assert_fast_matches_naive(fast, naive)

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
