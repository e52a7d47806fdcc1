"""Tests for the discrete-event simulation engine and timeline metrics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.costs import PassKind
from repro.schedules import (
    Pass,
    PipelineSchedule,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_terapipe_schedule,
    build_zero_bubble_v_schedule,
)
from repro.sim import (
    DeadlockError,
    SimulationEngine,
    Timeline,
    TimelineSpan,
    UniformCostProvider,
)


def run(schedule, **cost_kwargs):
    return SimulationEngine(schedule, UniformCostProvider(**cost_kwargs)).run()


# ---------------------------------------------------------------------------
# Basic engine behaviour
# ---------------------------------------------------------------------------
def test_1f1b_makespan_matches_closed_form():
    """With unit costs, 1F1B finishes in (m + p - 1) * (Tf + Tb)."""
    p, m, tf, tb = 4, 8, 1.0, 2.0
    timeline = run(build_1f1b_schedule(p, m), forward=tf, backward=tb)
    assert timeline.makespan == pytest.approx((m + p - 1) * (tf + tb))
    # Every device performs m forwards and m backwards.
    for device in range(p):
        assert timeline.busy_time(device) == pytest.approx(m * (tf + tb))


def test_gpipe_same_bubble_as_1f1b_with_uniform_costs():
    p, m = 4, 6
    gpipe = run(build_gpipe_schedule(p, m))
    f1b1 = run(build_1f1b_schedule(p, m))
    assert gpipe.makespan == pytest.approx(f1b1.makespan)
    assert gpipe.bubble_fraction() == pytest.approx(f1b1.bubble_fraction())


def test_bubble_fraction_definition():
    p, m, tf, tb = 4, 4, 1.0, 2.0
    timeline = run(build_1f1b_schedule(p, m), forward=tf, backward=tb)
    expected = (p - 1) / (m + p - 1)
    assert timeline.bubble_fraction() == pytest.approx(expected)


def test_more_microbatches_shrink_bubble_fraction():
    p = 4
    fractions = [run(build_1f1b_schedule(p, m)).bubble_fraction() for m in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(fractions[1:], fractions[:-1]))


def test_interleaving_reduces_bubble():
    p, m, v = 4, 8, 2
    plain = run(build_1f1b_schedule(p, m), forward=1.0, backward=2.0)
    # Each interleaved chunk holds 1/v of the layers, so its passes cost 1/v.
    interleaved = run(
        build_interleaved_1f1b_schedule(p, m, v), forward=1.0 / v, backward=2.0 / v
    )
    assert interleaved.bubble_fraction() < plain.bubble_fraction()
    assert interleaved.busy_time() == pytest.approx(plain.busy_time())


def test_terapipe_slicing_reduces_bubble_vs_gpipe():
    p, m, n = 4, 2, 8
    gpipe = run(build_gpipe_schedule(p, m))
    terapipe = run(build_terapipe_schedule(p, m, n))
    assert terapipe.bubble_fraction() < gpipe.bubble_fraction()


def test_zero_bubble_beats_1f1b_when_balanced():
    """With Tf = Tbi = Tbw the greedy ZB-V schedule approaches zero bubble."""
    p, m = 4, 8
    plain = run(build_1f1b_schedule(p, m), forward=1.0, backward=2.0)
    zbv_schedule = build_zero_bubble_v_schedule(p, m)
    zbv = run(zbv_schedule, forward=1.0, backward=2.0, backward_input=1.0, backward_weight=1.0)
    assert zbv.bubble_fraction() < plain.bubble_fraction()
    assert zbv.bubble_fraction() < 0.12


def test_zero_bubble_degrades_when_attention_dominates():
    """Tb >> Tf (long-context attention) brings imbalance bubbles back to ZB-V."""
    p, m = 4, 6
    balanced_sched = build_zero_bubble_v_schedule(p, m)
    balanced = run(
        balanced_sched, forward=1.0, backward_input=1.0, backward_weight=1.0
    )
    skewed_sched = build_zero_bubble_v_schedule(
        p, m, duration_fn=lambda w: {"F": 1.0, "Bi": 2.5, "Bw": 0.2}[w.kind.value]
    )
    skewed = run(skewed_sched, forward=1.0, backward_input=2.5, backward_weight=0.2)
    assert skewed.bubble_fraction() > balanced.bubble_fraction()


def test_comm_delay_increases_makespan():
    p, m = 4, 4
    base = run(build_1f1b_schedule(p, m))
    delayed = run(build_1f1b_schedule(p, m), comm=0.5)
    assert delayed.makespan > base.makespan
    assert delayed.busy_time() == pytest.approx(base.busy_time())


def test_deadlock_detection():
    """A schedule whose device orders wait on each other deadlocks."""
    sched = build_1f1b_schedule(2, 2)
    forward, backward = PassKind.FORWARD, PassKind.BACKWARD
    # Device 1 runs microbatch 1's forward first, which needs device 0's;
    # device 0 waits for microbatch 0's backward, which device 1 runs later.
    sched = dataclasses.replace(sched, device_orders=[
        [Pass(forward, 0, 0, 0), Pass(backward, 0, 0, 0),
         Pass(forward, 1, 0, 0), Pass(backward, 1, 0, 0)],
        [Pass(forward, 1, 1, 1), Pass(forward, 0, 1, 1),
         Pass(backward, 0, 1, 1), Pass(backward, 1, 1, 1)],
    ])
    with pytest.raises(DeadlockError):
        SimulationEngine(sched, UniformCostProvider()).run()


def test_every_pass_executed_exactly_once():
    sched = build_interleaved_1f1b_schedule(4, 8, 2)
    timeline = run(sched)
    assert len(timeline.spans) == sched.total_passes()
    keys = {(s.work.kind, s.work.work_key) for s in timeline.spans}
    assert len(keys) == sched.total_passes()


def test_dependencies_respected_in_time():
    sched = build_1f1b_schedule(3, 5)
    timeline = run(sched, comm=0.25)
    finish = timeline.finish_times()
    start = {(s.work.kind, s.work.work_key): s.start for s in timeline.spans}
    for span in timeline.spans:
        for dep in sched.dependencies(span.work):
            key = (dep.kind, dep.work_key)
            assert finish[key] <= start[(span.work.kind, span.work.work_key)] + 1e-12


# ---------------------------------------------------------------------------
# Timeline class behaviour
# ---------------------------------------------------------------------------
def test_timeline_span_validation():
    with pytest.raises(ValueError):
        TimelineSpan(0, Pass(PassKind.FORWARD, 0, 0, 0), 1.0, 0.5)


def test_timeline_device_range_checked():
    t = Timeline(num_devices=2)
    with pytest.raises(ValueError):
        t.add(TimelineSpan(5, Pass(PassKind.FORWARD, 0, 0, 5), 0.0, 1.0))


def test_empty_timeline_metrics():
    t = Timeline(num_devices=2)
    assert t.makespan == 0.0
    assert t.bubble_fraction() == 0.0
    assert t.device_utilizations() == [0.0, 0.0]
    assert t.render_ascii() == "(empty timeline)"


def test_render_ascii_contains_rows_for_each_device():
    timeline = run(build_1f1b_schedule(3, 3))
    art = timeline.render_ascii(width=60)
    assert art.count("\n") == 2
    assert "F" in art and "B" in art


def test_utilization_sums_to_busy_fraction():
    timeline = run(build_1f1b_schedule(4, 8))
    utils = timeline.device_utilizations()
    assert len(utils) == 4
    assert sum(utils) / 4 == pytest.approx(1 - timeline.bubble_fraction())


# ---------------------------------------------------------------------------
# Property: all builders produce executable (deadlock-free) schedules
# ---------------------------------------------------------------------------
@given(p=st.integers(2, 5), m=st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_all_simple_schedules_execute(p, m):
    for sched in (
        build_gpipe_schedule(p, m),
        build_1f1b_schedule(p, m),
        build_terapipe_schedule(p, m, p),
    ):
        timeline = run(sched)
        assert len(timeline.spans) == sched.total_passes()


@given(p=st.integers(2, 4), groups=st.integers(1, 3), v=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_interleaved_schedules_execute(p, groups, v):
    sched = build_interleaved_1f1b_schedule(p, groups * p, v)
    timeline = run(sched)
    assert len(timeline.spans) == sched.total_passes()


@given(p=st.integers(2, 4), m=st.integers(1, 5), half=st.booleans())
@settings(max_examples=10, deadline=None)
def test_zero_bubble_schedules_execute(p, m, half):
    sched = build_zero_bubble_v_schedule(p, m, half_memory=half)
    timeline = run(sched)
    assert len(timeline.spans) == sched.total_passes()
