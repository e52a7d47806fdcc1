"""Perfetto/Chrome trace export: schema validity and byte determinism.

The trace viewers are silent about malformed events — they just drop them —
so this suite pins the schema invariants the Chrome trace-event format
requires (phase codes, required keys, non-negative durations, balanced
async lifelines) and the exporter's determinism contract: the trace is a
pure function of the event stream, so two identical runs serialise to
byte-identical JSON.
"""

import json

import pytest

from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY, run_fleet_scenario
from repro.obs.events import EventRecorder
from repro.obs.trace import to_perfetto, write_perfetto
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario

_KNOWN_PHASES = {"M", "X", "C", "i", "b", "e", "n"}


def _serving_trace(mode="colocated"):
    recorder = EventRecorder()
    run_scenario(SCENARIO_REGISTRY["chat"], mode, seed=0, observe=recorder)
    return to_perfetto(recorder)


def _fleet_trace(name="steady-chat"):
    recorder = EventRecorder()
    run_fleet_scenario(FLEET_SCENARIO_REGISTRY[name], seed=0, observe=recorder)
    return to_perfetto(recorder)


def _check_schema(trace):
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    assert events
    open_async = {}
    for event in events:
        assert event["ph"] in _KNOWN_PHASES
        assert "pid" in event
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]
        else:
            assert event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "C":
            assert "value" in event["args"]
        if event["ph"] == "i":
            assert event["s"] == "g"
        if event["ph"] in ("b", "e"):
            key = (event["cat"], event["id"])
            if event["ph"] == "b":
                assert not open_async.get(key), f"lifeline {key} opened twice"
                open_async[key] = True
            else:
                assert open_async.get(key), f"lifeline {key} closed while closed"
                open_async[key] = False
    assert not any(open_async.values()), "unclosed request lifelines"


@pytest.mark.parametrize("mode", ["colocated", "disaggregated"])
def test_serving_trace_schema(mode):
    _check_schema(_serving_trace(mode))


@pytest.mark.parametrize("name", ["steady-chat", "flash-crowd", "unreliable"])
def test_fleet_trace_schema(name):
    _check_schema(_fleet_trace(name))


def test_serving_trace_has_all_pids_and_counters():
    trace = _serving_trace()
    events = trace["traceEvents"]
    names = {
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {"engine", "requests", "counters", "cluster"}
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert any(name.startswith("queue depth") for name in counters)
    assert any(name.startswith("batch tokens") for name in counters)
    assert any(name.startswith("kv utilization") for name in counters)
    boxes = [e for e in events if e["ph"] == "X"]
    assert any(e["cat"] == "iteration" for e in boxes), "no iteration boxes"
    # Coalesced decode stretches render as one box each.
    stretches = [e for e in boxes if e["cat"] == "stretch"]
    assert stretches and all(e["name"].startswith("decode x") for e in stretches)


def test_prefix_scenario_emits_hit_rate_counter():
    recorder = EventRecorder()
    run_scenario(
        SCENARIO_REGISTRY["shared-system-prompt"], "colocated", seed=0, observe=recorder
    )
    trace = to_perfetto(recorder)
    rates = [
        e["args"]["value"]
        for e in trace["traceEvents"]
        if e["ph"] == "C" and e["name"].startswith("prefix hit rate")
    ]
    assert rates, "prefix-cache scenario produced no hit-rate counter"
    assert all(0.0 <= value <= 1.0 for value in rates)


def test_fleet_trace_has_autoscaler_counters_and_markers():
    trace = _fleet_trace("flash-crowd")
    events = trace["traceEvents"]
    counters = {e["name"] for e in events if e["ph"] == "C"}
    assert {"fleet queue depth", "arrival rate (ewma)", "replica target"} <= counters
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert "activate" in instants


def test_trace_is_byte_deterministic():
    first = json.dumps(_serving_trace(), sort_keys=True)
    second = json.dumps(_serving_trace(), sort_keys=True)
    assert first == second
    fleet_first = json.dumps(_fleet_trace(), sort_keys=True)
    fleet_second = json.dumps(_fleet_trace(), sort_keys=True)
    assert fleet_first == fleet_second


def test_write_perfetto_round_trips(tmp_path):
    recorder = EventRecorder()
    run_scenario(SCENARIO_REGISTRY["chat"], "colocated", seed=0, observe=recorder)
    path = write_perfetto(recorder, str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    assert loaded == to_perfetto(recorder)


def test_time_unit_must_be_positive():
    with pytest.raises(ValueError, match="time_unit_us"):
        to_perfetto(EventRecorder(), time_unit_us=0.0)
