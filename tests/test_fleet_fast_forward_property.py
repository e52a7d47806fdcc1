"""Hypothesis oracle: the fleet's folded decode stretches equal the naive stepper.

The fleet loop folds every decode-stretch step that ends before the next
global event (arrival, autoscaler tick, failure, slow-window end,
provisioning, recovery) out of its event queue.  This suite generates small
fleets — replica count, router, autoscaler, crash and overlapping slow
windows timed anywhere in the run (so often inside a stretch), prefix
caching and record retention — and requires, on every example:

* fast == naive on the whole fleet digest, with every ITERATION and
  STRETCH event of the fast run ending where the naive run's iteration of
  the same count ends;
* the token conservation law over every pool incarnation;
* no stall: the run drains and every request finishes.

Two deterministic cases pin the tie rules on the naive run's ITERATION
events: identical replicas serving identical requests complete at
bit-identical times, in replica order, and a failure timed to the bit on a
stretch step's end ties with that completion; both paths order either tie
alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import FleetConfig, FleetEngine
from repro.fleet.failures import FailureEvent, FailurePlan
from repro.model.config import get_model_config
from repro.obs.events import ITER_DURATION, ITERATION, EventRecorder
from repro.serving.metrics import SLO
from repro.serving.workload import Request

from test_fast_forward_equivalence import assert_fast_matches_naive, fleet_digest

MODEL = get_model_config("llama-13b")
PREFIX = (("system-prompt", 1024),)


def _trace(triples, shared_prefix):
    ordered = sorted(triples)
    return [
        Request(
            request_id=index,
            arrival_time=arrival,
            prompt_tokens=prompt + (PREFIX[0][1] if shared_prefix else 0),
            output_tokens=output,
            prefix=PREFIX if shared_prefix else (),
        )
        for index, (arrival, prompt, output) in enumerate(ordered)
    ]


def _run(trace, config, router, plan, fast_forward):
    """One fleet run and its recorder."""
    recorder = EventRecorder()
    config = FleetConfig(**{**config, "fast_forward": fast_forward, "observe": recorder})
    engine = FleetEngine(MODEL, config, router=router, failure_plan=plan)
    return engine.run(list(trace), SLO()), recorder


def _iterations(recorder):
    return [event for event in recorder.events if event.kind == ITERATION]


def _check(trace, config, router="round-robin", plan=None):
    """Compare the fast and naive runs; return the naive run's ITERATION events."""
    plan = plan or FailurePlan()
    fast, fast_events = _run(trace, config, router, plan, fast_forward=True)
    naive, naive_events = _run(trace, config, router, plan, fast_forward=False)
    assert_fast_matches_naive(fleet_digest(fast, fast_events), fleet_digest(naive, naive_events))
    assert fast.token_accounting_balanced
    assert fast.metrics.num_requests == len(trace)
    if fast.retain_records:
        assert all(record.finished for record in fast.records)
    return _iterations(naive_events)


failure_events = st.builds(
    FailureEvent,
    time=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    kind=st.sampled_from(["crash", "slow", "slow"]),
    replica_index=st.integers(min_value=0, max_value=3),
    duration=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    slowdown=st.floats(min_value=1.5, max_value=3.0, allow_nan=False),
).map(
    # Crashes carry no slowdown (the event validates it only for "slow").
    lambda event: event if event.kind == "slow" else FailureEvent(
        event.time, event.kind, event.replica_index, event.duration
    )
)


class TestFleetFastForwardProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                st.integers(min_value=1, max_value=3000),
                st.integers(min_value=2, max_value=300),
            ),
            min_size=1,
            max_size=10,
        ),
        replicas=st.integers(min_value=1, max_value=4),
        router=st.sampled_from(["round-robin", "least-tokens", "kv-aware"]),
        autoscale=st.booleans(),
        scale_up_latency=st.sampled_from([0.0, 0.3]),
        failures=st.lists(failure_events, max_size=4),
        prefix_caching=st.booleans(),
        retain_records=st.booleans(),
    )
    def test_folded_stretches_match_the_naive_stepper(
        self,
        triples,
        replicas,
        router,
        autoscale,
        scale_up_latency,
        failures,
        prefix_caching,
        retain_records,
    ):
        config = dict(
            gpus_per_replica=1,
            initial_replicas=replicas,
            max_replicas=4,
            scale_up_latency=scale_up_latency,
            autoscaler=AutoscalerConfig(
                policy="queue-depth" if autoscale else "none",
                interval=0.25,
                scale_up_queue=1.0,
                scale_down_queue=0.5,
                cooldown=0.5,
            ),
            prefix_caching=prefix_caching,
            retain_records=retain_records,
        )
        trace = _trace(triples, shared_prefix=prefix_caching)
        _check(trace, config, router, FailurePlan(events=tuple(failures)))


def test_identical_replicas_tie_alike_in_both_paths():
    # Two identical replicas get one identical request each at t=0, so every
    # iteration of one completes at the same float time as the other's.
    trace = _trace([(0.0, 512, 40), (0.0, 512, 40)], shared_prefix=False)
    config = dict(gpus_per_replica=1, initial_replicas=2, max_replicas=2)
    ends = {}
    for event in _check(trace, config):
        ends.setdefault(event.time, []).append(event.track)
    ties = [replicas for replicas in ends.values() if len(replicas) > 1]
    assert ties, "the replicas never completed at the same time"
    # Tied completions, with no global event queued between them, complete
    # in replica order.
    assert all(replicas == sorted(replicas) for replicas in ties)


def test_global_event_exactly_at_a_stretch_step_end():
    # A failure timed to the bit on a mid-stretch step's end ties with that
    # completion; the global event was queued first, so it goes first in both
    # paths, and the step that reaches it must not fold.
    trace = _trace([(0.0, 512, 60)], shared_prefix=False)
    config = dict(gpus_per_replica=1, initial_replicas=1, max_replicas=1)
    _, probe = _run(trace, config, "round-robin", FailurePlan(), fast_forward=False)
    iterations = _iterations(probe)
    tie = iterations[len(iterations) // 2].time
    slow = FailureEvent(time=tie, kind="slow", replica_index=0, duration=0.5, slowdown=2.0)
    crash = FailureEvent(time=tie, kind="crash", replica_index=0, duration=0.5)
    _check(trace, config, plan=FailurePlan(events=(crash,)))
    iterations = _check(trace, config, plan=FailurePlan(events=(slow,)))
    # The slow window opened before the step starting at ``tie`` was priced.
    at = next(index for index, event in enumerate(iterations) if event.time == tie)
    before, after = (event.data[ITER_DURATION] for event in iterations[at : at + 2])
    assert after > 1.5 * before
