"""Structural tests for the baseline pipeline schedules."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.costs import PassKind
from repro.schedules import (
    Pass,
    PipelineSchedule,
    ScheduleValidationError,
    available_schedules,
    build_1f1b_schedule,
    build_gpipe_schedule,
    build_interleaved_1f1b_schedule,
    build_schedule,
    build_terapipe_schedule,
    build_zero_bubble_v_schedule,
    v_shape_stage_of,
)


# ---------------------------------------------------------------------------
# Pass
# ---------------------------------------------------------------------------
def test_pass_validation_and_helpers():
    p = Pass(PassKind.FORWARD, 0, 2, 1, slice_index=3, num_slices=8)
    assert p.is_forward and not p.is_backward
    assert p.work_key == (0, 2, 3)
    assert "F[mb0,s2,slice3]@dev1" == p.describe()
    assert p.with_kind(PassKind.BACKWARD).is_backward
    with pytest.raises(ValueError):
        Pass(PassKind.FORWARD, -1, 0, 0)
    with pytest.raises(ValueError):
        Pass(PassKind.FORWARD, 0, 0, 0, slice_index=8, num_slices=8)
    with pytest.raises(ValueError):
        Pass(PassKind.FORWARD, 0, 0, 0, num_slices=0)


# ---------------------------------------------------------------------------
# GPipe
# ---------------------------------------------------------------------------
def test_gpipe_structure():
    sched = build_gpipe_schedule(4, 6)
    assert sched.num_stages == 4 and sched.total_passes() == 4 * 6 * 2
    assert sched.warmup_forward_counts() == [6, 6, 6, 6]
    assert sched.max_inflight_activations() == [6, 6, 6, 6]


def test_gpipe_invalid_sizes():
    with pytest.raises(ValueError):
        build_gpipe_schedule(0, 4)
    with pytest.raises(ValueError):
        build_gpipe_schedule(4, 0)


# ---------------------------------------------------------------------------
# Default 1F1B
# ---------------------------------------------------------------------------
def test_1f1b_inflight_matches_pipeline_depth():
    p, m = 4, 8
    sched = build_1f1b_schedule(p, m)
    # Device rank r accumulates p - r microbatches (Figure 4, top).
    assert sched.max_inflight_activations() == [4, 3, 2, 1]
    # Counting the steady-phase forward that precedes the first backward,
    # device rank r has run p - r forwards when its first backward starts.
    assert sched.warmup_forward_counts() == [4, 3, 2, 1]


def test_1f1b_fewer_microbatches_than_devices():
    sched = build_1f1b_schedule(8, 2)
    assert max(sched.max_inflight_activations()) == 2
    sched.validate()


def test_1f1b_first_device_alternates_after_warmup():
    sched = build_1f1b_schedule(2, 4)
    kinds = [p.kind for p in sched.passes_on_device(0)]
    assert kinds[0] is PassKind.FORWARD
    assert kinds.count(PassKind.FORWARD) == 4 and kinds.count(PassKind.BACKWARD) == 4


# ---------------------------------------------------------------------------
# Interleaved 1F1B
# ---------------------------------------------------------------------------
def test_interleaved_structure():
    p, m, v = 4, 8, 2
    sched = build_interleaved_1f1b_schedule(p, m, v)
    assert sched.num_stages == p * v
    assert sched.total_passes() == m * v * 2 * p
    mapping = sched.stage_to_device()
    assert mapping[0] == 0 and mapping[4] == 0 and mapping[5] == 1


def test_interleaved_requires_m_multiple_of_p():
    with pytest.raises(ValueError, match="multiple of the pipeline size"):
        build_interleaved_1f1b_schedule(4, 6, 2)
    # v=1 degenerates to plain 1F1B and has no such restriction.
    build_interleaved_1f1b_schedule(4, 6, 1).validate()


def test_interleaved_inflight_exceeds_plain_1f1b_in_stage_units():
    p, m, v = 4, 8, 2
    plain = build_1f1b_schedule(p, m)
    inter = build_interleaved_1f1b_schedule(p, m, v)
    # Table 2: interleaving stores 1 + (p-1)/(vp) microbatches on device 0.
    # One microbatch on a device spans v chunk-activations, so the peak in
    # chunk units is v*p + p - 1 (Megatron's warm-up of 2(p-1) + (v-1)p, +1).
    assert max(plain.max_inflight_activations()) == p
    assert max(inter.max_inflight_activations()) == v * p + p - 1


def test_interleaved_m_equals_p_special_case():
    sched = build_interleaved_1f1b_schedule(4, 4, 3)
    sched.validate()
    assert sched.warmup_forward_counts()[0] == 4 * 3


# ---------------------------------------------------------------------------
# TeraPipe
# ---------------------------------------------------------------------------
def test_terapipe_accumulates_everything():
    sched = build_terapipe_schedule(4, 2, 8)
    assert sched.num_slices == 8
    assert sched.max_inflight_activations() == [16, 16, 16, 16]


def test_terapipe_backward_order_is_reverse():
    sched = build_terapipe_schedule(2, 1, 4)
    backwards = [p for p in sched.passes_on_device(0) if p.is_backward]
    assert [p.slice_index for p in backwards] == [3, 2, 1, 0]


# ---------------------------------------------------------------------------
# Zero bubble (ZB-V / V-Half)
# ---------------------------------------------------------------------------
def test_v_shape_stage_assignment():
    assert v_shape_stage_of(0, 0, 4) == 0
    assert v_shape_stage_of(1, 0, 4) == 7
    assert v_shape_stage_of(1, 3, 4) == 4
    with pytest.raises(ValueError):
        v_shape_stage_of(2, 0, 4)


def test_zbv_structure_and_memory_cap():
    p, m = 4, 6
    sched = build_zero_bubble_v_schedule(p, m)
    assert sched.splits_backward
    assert sched.num_stages == 2 * p
    assert sched.total_passes() == m * 2 * p * 3
    assert max(sched.max_inflight_activations()) <= 2 * p
    mapping = sched.stage_to_device()
    assert mapping[0] == 0 and mapping[7] == 0 and mapping[4] == 3


def test_vhalf_uses_less_memory_than_zbv():
    p, m = 4, 8
    zbv = build_zero_bubble_v_schedule(p, m)
    vhalf = build_zero_bubble_v_schedule(p, m, half_memory=True)
    assert max(vhalf.max_inflight_activations()) <= p
    assert max(vhalf.max_inflight_activations()) <= max(zbv.max_inflight_activations())


def test_zbv_custom_durations_and_validation():
    def duration(work):
        return {"F": 1.0, "Bi": 2.0, "Bw": 0.5}[work.kind.value]

    sched = build_zero_bubble_v_schedule(3, 4, duration_fn=duration)
    sched.validate()


def test_zbv_invalid_sizes():
    with pytest.raises(ValueError):
        build_zero_bubble_v_schedule(0, 4)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_registry_builds_all_known_schedules():
    for name in available_schedules():
        kwargs = {}
        if name == "interleaved-1f1b":
            kwargs["num_chunks"] = 2
        sched = build_schedule(name, 4, 8, **kwargs)
        assert isinstance(sched, PipelineSchedule)
        sched.validate()


def test_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown schedule"):
        build_schedule("does-not-exist", 4, 4)


# ---------------------------------------------------------------------------
# Schedule validation catches corrupted schedules
# ---------------------------------------------------------------------------
def _with_order(schedule, device, order):
    """``schedule`` with one device's pass list replaced, through the constructor."""
    orders = list(schedule.device_orders)
    orders[device] = tuple(order)
    return dataclasses.replace(schedule, device_orders=orders)


def test_validation_rejects_duplicate_and_missing_passes():
    sched = build_1f1b_schedule(2, 2)
    order = sched.device_orders[0]
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(sched, 0, order + order[:1])
    assert str(raised.value) == "duplicate pass F[mb0,s0]@dev0"
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(sched, 1, sched.device_orders[1][:-1])
    assert str(raised.value) == "missing B for (1, 1, None)"


def test_validation_rejects_backward_before_forward():
    sched = build_1f1b_schedule(2, 2)
    order = sched.device_orders[1]
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(sched, 1, order[-1:] + order[:-1])  # last backward to the front
    assert str(raised.value) == "B[mb1,s1]@dev1 scheduled before its forward on device 1"


def test_validation_rejects_wrong_device_list():
    sched = build_1f1b_schedule(2, 2)
    order = (Pass(PassKind.FORWARD, 0, 1, 1),) + sched.device_orders[0][1:]
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(sched, 0, order)
    assert str(raised.value) == "pass F[mb0,s1]@dev1 stored in device 0's list"


def test_stage_to_device_conflict_detection():
    sched = build_1f1b_schedule(2, 2)
    # A stray copy of a stage-0 forward is a duplicate first.
    order = sched.device_orders[1] + (Pass(PassKind.FORWARD, 1, 0, 1),)
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(sched, 1, order)
    assert str(raised.value) == "duplicate pass F[mb1,s0]@dev1"
    # Moving microbatch 1's stage-0 passes to device 1 splits the stage.
    order0 = sched.device_orders[0]
    moved = tuple(dataclasses.replace(p, device=1) for p in order0 if p.microbatch == 1)
    with pytest.raises(ScheduleValidationError) as raised:
        dataclasses.replace(sched, device_orders=[
            [p for p in order0 if p.microbatch != 1], sched.device_orders[1] + moved,
        ])
    assert str(raised.value) == "stage 0 appears on devices 0 and 1"


def test_schedules_are_immutable_and_compiled_once():
    sched = build_1f1b_schedule(2, 2)
    with pytest.raises(AttributeError):
        sched.device_orders[0].append(sched.device_orders[0][0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.device_orders = ()
    assert sched.compiled() is sched.compiled()
    assert not hasattr(sched.compiled(), "source")
    assert not hasattr(sched.compiled(), "missing")
    # Built from lists, stored as tuples, and equal to a rebuilt copy.
    assert all(isinstance(order, tuple) for order in sched.device_orders)
    assert dataclasses.replace(sched) == sched


# ---------------------------------------------------------------------------
# Property: every builder yields a valid schedule
# ---------------------------------------------------------------------------
@given(p=st.integers(2, 6), m=st.integers(1, 10))
@settings(max_examples=25, deadline=None)
def test_simple_builders_always_validate(p, m):
    build_gpipe_schedule(p, m).validate()
    build_1f1b_schedule(p, m).validate()
    build_terapipe_schedule(p, m, 2 * p).validate()


@given(p=st.integers(2, 4), groups=st.integers(1, 3), v=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_interleaved_builder_always_validates(p, groups, v):
    build_interleaved_1f1b_schedule(p, groups * p, v).validate()


@given(p=st.integers(2, 4), m=st.integers(1, 6), half=st.booleans())
@settings(max_examples=15, deadline=None)
def test_zero_bubble_builder_always_validates(p, m, half):
    build_zero_bubble_v_schedule(p, m, half_memory=half).validate()
