"""The event recorder must be invisible: recorder-on runs are byte-identical.

Design constraint 1 of :mod:`repro.obs.events` — every emit site is guarded
by ``if obs is not None``, so attaching a recorder may never change a
simulated number.  This suite pins bit equality of every metric, timestamp
and counter between observed and unobserved runs (iteration ends live in
the event stream, which only the observed run has):

* across every registered serving scenario in both deployment modes,
* across every registered fleet scenario (autoscaling, crashes, slow
  windows and heterogeneous GPUs included),

and then sanity-checks the stream itself: lifecycle bookkeeping balances
(one ARRIVE and one FINISH per finished request), tracks carry labels, the
phase profiler meters work only when asked, and the JSONL export
round-trips the stream losslessly.
"""

import json

import pytest

from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY, run_fleet_scenario
from repro.obs import events as obs_events
from repro.obs.events import EventRecorder
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario

from test_fast_forward_equivalence import fleet_digest, serving_digest


@pytest.mark.parametrize(
    "scenario_name",
    sorted(name for name in SCENARIO_REGISTRY if not name.startswith("massive-")),
)
@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_serving_scenarios_unchanged_by_recorder(scenario_name, mode):
    scenario = SCENARIO_REGISTRY[scenario_name]
    recorder = EventRecorder()
    observed = run_scenario(scenario, mode, seed=0, observe=recorder)
    plain = run_scenario(scenario, mode, seed=0)
    assert serving_digest(observed) == serving_digest(plain)
    # The run must actually have been observed, not silently skipped.
    counts = recorder.counts()
    finished = sum(1 for r in observed.records if r.finished)
    assert counts[obs_events.FINISH] == finished
    assert counts[obs_events.FIRST_TOKEN] == finished
    assert recorder.track_names  # pools registered labels


@pytest.mark.parametrize(
    "scenario_name",
    sorted(name for name in SCENARIO_REGISTRY if name.startswith("massive-")),
)
def test_massive_scenario_slices_unchanged_by_recorder(scenario_name):
    # Truncated, record-retaining slices: the full streamed runs are too big
    # to replay twice here, and the record-level digest needs records.
    scenario = SCENARIO_REGISTRY[scenario_name]
    recorder = EventRecorder()
    observed = run_scenario(
        scenario, seed=0, observe=recorder, retain_records=True, max_requests=300
    )
    plain = run_scenario(scenario, seed=0, retain_records=True, max_requests=300)
    assert serving_digest(observed) == serving_digest(plain)
    counts = recorder.counts()
    finished = sum(1 for r in observed.records if r.finished)
    assert finished > 0
    assert counts[obs_events.FINISH] == finished


@pytest.mark.parametrize("scenario_name", sorted(FLEET_SCENARIO_REGISTRY))
def test_fleet_scenarios_unchanged_by_recorder(scenario_name):
    scenario = FLEET_SCENARIO_REGISTRY[scenario_name]
    recorder = EventRecorder()
    observed = run_fleet_scenario(scenario, seed=0, observe=recorder)
    plain = run_fleet_scenario(scenario, seed=0)
    assert fleet_digest(observed) == fleet_digest(plain)
    counts = recorder.counts()
    finished = sum(1 for r in observed.records if r.finished)
    assert counts[obs_events.FINISH] == finished
    # Every request reached the cluster router exactly once.
    assert counts[obs_events.ARRIVE] == len(observed.records)
    assert any("replica" in name for name in recorder.track_names.values())


def _observed_chat(profile=False):
    recorder = EventRecorder(profile=profile)
    result = run_scenario(SCENARIO_REGISTRY["chat"], "colocated", seed=0, observe=recorder)
    return recorder, result


def test_lifecycle_bookkeeping_balances():
    recorder, result = _observed_chat()
    counts = recorder.counts()
    finished = sum(1 for r in result.records if r.finished)
    # Colocated, no preemption-free guarantee: admissions >= finishes.
    assert counts[obs_events.ARRIVE] == len(result.records)
    assert counts[obs_events.ADMIT] >= finished
    assert counts.get(obs_events.PREEMPT, 0) == result.preemptions
    # Every finished request appears in first-seen order with full lifecycle.
    assert set(recorder.requests()) == {r.request.request_id for r in result.records}
    by_request = {}
    for event in recorder.events:
        if event.request_id is not None:
            by_request.setdefault(event.request_id, []).append(event.kind)
    for record in result.records:
        if record.finished:
            kinds = by_request[record.request.request_id]
            assert kinds[0] == obs_events.ARRIVE
            assert kinds[-1] == obs_events.FINISH
            assert obs_events.FIRST_TOKEN in kinds


def test_finish_event_data_matches_record():
    recorder, result = _observed_chat()
    records = {r.request.request_id: r for r in result.records}
    for event in recorder.of_kind(obs_events.FINISH):
        record = records[event.request_id]
        ttft, tpot, output_tokens = event.data
        assert ttft == record.ttft
        assert tpot == record.tpot
        assert output_tokens == record.request.output_tokens
        assert event.time == record.finish_time


def test_events_are_time_ordered_per_track():
    # ARRIVE is backfilled at the request's queue-entry timestamp when the
    # pool next wakes, so it may trail the track's emission frontier; every
    # other kind is emitted at its own simulated moment, in order.
    recorder, _ = _observed_chat()
    last = {}
    for event in recorder.events:
        if event.kind == obs_events.ARRIVE:
            continue
        assert event.time >= last.get(event.track, 0.0)
        last[event.track] = event.time


def _observed_fleet(profile=False):
    recorder = EventRecorder(profile=profile)
    run_fleet_scenario(FLEET_SCENARIO_REGISTRY["unreliable"], seed=0, observe=recorder)
    return recorder


@pytest.mark.parametrize(
    "observed", [lambda p: _observed_chat(p)[0], _observed_fleet], ids=["serving", "fleet"]
)
def test_profiler_only_when_requested(observed):
    bare = observed(False)
    assert bare.profiler is None
    profiled = observed(True)
    rows = profiled.profiler.rows()
    assert rows, "profiled run metered no phases"
    phases = {phase for phase, _, _, _ in rows}
    assert {"admission", "pricing", "fast-forward", "commit"} <= phases
    assert profiled.profiler.total_seconds() > 0.0
    # Profiling is out-of-band: the event streams are still identical.
    assert [e for e in profiled.events] == [e for e in bare.events]


def test_to_jsonl_round_trips(tmp_path):
    recorder, _ = _observed_chat()
    path = recorder.to_jsonl(str(tmp_path / "events.jsonl"))
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    assert len(lines) == len(recorder)
    for raw, event in zip(lines, recorder.events):
        assert raw["time"] == event.time
        assert raw["kind"] == event.kind
        assert raw["track"] == event.track
        assert raw["request_id"] == event.request_id
        restored = tuple(raw["data"]) if raw["data"] is not None else None
        assert restored == event.data


def test_fleet_unreliable_captures_failures():
    recorder = EventRecorder()
    run_fleet_scenario(FLEET_SCENARIO_REGISTRY["unreliable"], seed=0, observe=recorder)
    counts = recorder.counts()
    assert counts.get(obs_events.CRASH, 0) > 0
    assert counts.get(obs_events.RECOVER, 0) > 0
    assert counts.get(obs_events.SLOW, 0) > 0
    assert counts.get(obs_events.SLOW_END, 0) > 0


def test_fleet_flash_crowd_captures_scaling():
    recorder = EventRecorder()
    run_fleet_scenario(FLEET_SCENARIO_REGISTRY["flash-crowd"], seed=0, observe=recorder)
    counts = recorder.counts()
    assert counts.get(obs_events.SCALE, 0) > 0
    assert counts.get(obs_events.SCALE_UP, 0) > 0
    assert counts.get(obs_events.ROUTE, 0) > 0
