"""The compiled-id simulator reproduces the Pass-keyed round-robin loop exactly.

``SimulationEngine.run`` executes a schedule's :class:`CompiledSchedule`:
integer pass ids, dependency ids resolved once, durations and transfer
delays priced once, a flat finish-time list.  ``_ReferenceEngine`` below is
the loop it replaced, kept verbatim as the oracle: it resolves every
dependency through ``_structural_dependencies`` (the ``Pass``-keyed
dependency rule, stated here independently of the schedule's compiled
form) and a dict keyed by ``(kind, work_key)``.  For every
schedule builder and generated costs the two must produce the same spans,
bit for bit and in the same order (the order ``Timeline.busy_time`` sums
in), and the same errors.

The example budget is small in the tier-1 suite; set
``REPRO_SIM_ORACLE_EXAMPLES`` (e.g. 300) for a deeper run.
"""

import dataclasses
import os
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schedule import build_slimpipe_schedule
from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_149B
from repro.model.costs import PassKind
from repro.model.memory import RecomputeMode
from repro.parallel.config import ParallelConfig
from repro.schedules import SCHEDULE_BUILDERS, build_schedule
from repro.schedules.base import Pass, PipelineSchedule, ScheduleValidationError
from repro.schedules.pipedream_1f1b import build_1f1b_schedule
from repro.sim.engine import DeadlockError, SimulationEngine, UniformCostProvider
from repro.sim.providers import ModelCostProvider, spec_for_schedule
from repro.sim.timeline import Timeline, TimelineSpan

_EXAMPLES = int(os.environ.get("REPRO_SIM_ORACLE_EXAMPLES", "10"))


def _structural_dependencies(schedule: PipelineSchedule, p: Pass) -> List[Pass]:
    """Structural prerequisites of pass ``p``, built as ``Pass`` objects."""
    deps: List[Pass] = []
    stage_device = schedule.stage_to_device()
    grad_kind = PassKind.BACKWARD_INPUT if schedule.splits_backward else PassKind.BACKWARD

    def make(kind: PassKind, stage: int, slice_index: Optional[int], microbatch: int) -> Pass:
        return Pass(
            kind=kind,
            microbatch=microbatch,
            stage=stage,
            device=stage_device[stage],
            slice_index=slice_index,
            num_slices=p.num_slices,
        )

    if p.kind is PassKind.FORWARD:
        if p.stage > 0:
            deps.append(make(PassKind.FORWARD, p.stage - 1, p.slice_index, p.microbatch))
        if p.slice_index is not None and p.slice_index > 0:
            deps.append(make(PassKind.FORWARD, p.stage, p.slice_index - 1, p.microbatch))
    elif p.kind in (PassKind.BACKWARD, PassKind.BACKWARD_INPUT):
        deps.append(make(PassKind.FORWARD, p.stage, p.slice_index, p.microbatch))
        if p.stage < schedule.num_stages - 1:
            deps.append(make(grad_kind, p.stage + 1, p.slice_index, p.microbatch))
        if p.slice_index is not None and p.slice_index < p.num_slices - 1:
            deps.append(make(grad_kind, p.stage, p.slice_index + 1, p.microbatch))
    elif p.kind is PassKind.BACKWARD_WEIGHT:
        deps.append(make(PassKind.BACKWARD_INPUT, p.stage, p.slice_index, p.microbatch))
    else:  # pragma: no cover - exhaustive enum
        raise ScheduleValidationError(f"unsupported pass kind {p.kind}")
    return deps


class _ReferenceEngine:
    """The round-robin loop over ``Pass`` objects that the compiled engine replaced.

    ``device_orders`` (default: the schedule's own) lets it run pass lists
    the schedule constructor would reject; the dependency rule only reads
    the schedule's stage map and shape.
    """

    def __init__(self, schedule, costs, device_orders=None):
        self.schedule = schedule
        self.costs = costs
        self.device_orders = device_orders or schedule.device_orders

    def run(self) -> Timeline:
        schedule = self.schedule
        orders = self.device_orders
        num_devices = schedule.num_devices
        pointers = [0] * num_devices
        device_time = [0.0] * num_devices
        finished: Dict[Tuple, Tuple[float, Pass]] = {}
        timeline = Timeline(num_devices=num_devices)
        remaining = sum(map(len, orders))

        while remaining > 0:
            progressed = False
            for device in range(num_devices):
                while pointers[device] < len(orders[device]):
                    work = orders[device][pointers[device]]
                    ready_time = device_time[device]
                    blocked = False
                    for dep in _structural_dependencies(schedule, work):
                        key = (dep.kind, dep.work_key)
                        if key not in finished:
                            blocked = True
                            break
                        dep_finish, dep_pass = finished[key]
                        ready_time = max(
                            ready_time, dep_finish + self.costs.comm_delay(dep_pass, work)
                        )
                    if blocked:
                        break
                    start = ready_time
                    end = start + self.costs.duration(work)
                    timeline.add(TimelineSpan(device=device, work=work, start=start, end=end))
                    finished[(work.kind, work.work_key)] = (end, work)
                    device_time[device] = end
                    pointers[device] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                stuck = [
                    orders[d][pointers[d]].describe()
                    for d in range(num_devices)
                    if pointers[d] < len(orders[d])
                ]
                raise DeadlockError(
                    "schedule cannot make progress; blocked passes: " + ", ".join(stuck)
                )
        return timeline


# ----------------------------------------------------------------------------
# Schedules and costs
# ----------------------------------------------------------------------------

#: Every registered builder plus SlimPipe at v = 1, 2 and 4.
_BUILDERS = sorted(SCHEDULE_BUILDERS) + ["slimpipe-v1", "slimpipe-v2", "slimpipe-v4"]


def _build(name: str, p: int, m: int, slices_per_device: int) -> PipelineSchedule:
    """``m`` microbatches, or ``m`` per device where the schedule needs ``p | m``."""
    if name == "interleaved-1f1b":
        m *= p
    if name.startswith("slimpipe-v"):
        v = int(name[len("slimpipe-v"):])
        return build_slimpipe_schedule(p, m, slices_per_device * p, num_stages_per_device=v)
    return build_schedule(
        name, p, m, num_chunks=2, num_slices=slices_per_device * p,
        duration_fn=lambda work: 1.0 + 0.25 * work.stage + (work.kind is PassKind.BACKWARD_INPUT),
    )


schedules = st.builds(
    _build,
    name=st.sampled_from(_BUILDERS),
    p=st.integers(1, 4),
    m=st.integers(1, 3),
    slices_per_device=st.integers(1, 2),
)

_times = st.floats(0.001, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def uniform_costs(draw):
    return UniformCostProvider(
        forward=draw(_times),
        backward=draw(_times),
        backward_input=draw(_times),
        backward_weight=draw(_times),
        comm=draw(st.one_of(st.just(0.0), _times)),
    )


def _model_costs(schedule: PipelineSchedule, context_parallel: int, recompute, exchange, vocab):
    """Model pricing of a registered model whose layers every shape here divides."""
    sliced = any(p.slice_index is not None for p in schedule.all_passes())
    parallel = ParallelConfig(
        tensor_parallel_size=8,
        context_parallel_size=context_parallel,
        pipeline_parallel_size=schedule.num_devices,
        virtual_pipeline_size=schedule.stages_per_device,
        num_slices=schedule.num_slices if sliced else None,
    )
    spec = spec_for_schedule(
        schedule, LLAMA_149B, parallel, 16 * 1024,
        recompute=recompute,
        context_exchange=exchange,
        vocab_parallel=vocab,
        exchange_exposed_fraction=0.5,
    )
    return ModelCostProvider(spec, hopper_cluster(parallel.world_size))


def _spans(timeline: Timeline):
    return [(s.device, s.work, s.start, s.end) for s in timeline.spans]


def _assert_bit_equal(schedule: PipelineSchedule, costs) -> None:
    expected = _ReferenceEngine(schedule, costs).run()
    actual = SimulationEngine(schedule, costs).run()
    # ``repr`` round-trips floats exactly (and tells -0.0 from 0.0).
    assert repr(_spans(actual)) == repr(_spans(expected))
    assert all(a.work is e.work for a, e in zip(actual.spans, expected.spans))
    assert repr(actual.busy_time()) == repr(expected.busy_time())
    assert len(actual.spans) == schedule.total_passes()


_SETTINGS = dict(
    max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------------
# Bit-identity with the oracle
# ----------------------------------------------------------------------------


@settings(**_SETTINGS)
@given(schedule=schedules, costs=uniform_costs())
def test_compiled_engine_matches_oracle_under_uniform_costs(schedule, costs):
    _assert_bit_equal(schedule, costs)


@settings(**_SETTINGS)
@given(
    schedule=schedules,
    context_parallel=st.sampled_from([1, 2]),
    recompute=st.sampled_from(list(RecomputeMode)),
    exchange=st.booleans(),
    vocab=st.booleans(),
)
def test_compiled_engine_matches_oracle_under_model_costs(
    schedule, context_parallel, recompute, exchange, vocab
):
    _assert_bit_equal(
        schedule, _model_costs(schedule, context_parallel, recompute, exchange, vocab)
    )


@settings(**_SETTINGS)
@given(schedule=schedules, costs=uniform_costs(), data=st.data())
def test_reordered_device_lists_run_or_deadlock_like_the_oracle(schedule, costs, data):
    """A schedule built from one shuffled device list runs or deadlocks like the oracle."""
    device = data.draw(st.integers(0, schedule.num_devices - 1))
    orders = list(schedule.device_orders)
    orders[device] = tuple(data.draw(st.permutations(orders[device])))
    try:
        expected = repr(_spans(_ReferenceEngine(schedule, costs, orders).run()))
    except DeadlockError as error:
        expected = error
    try:
        reordered = dataclasses.replace(schedule, device_orders=orders)
    except ScheduleValidationError as error:
        # The only defect a permutation can introduce, and it never runs.
        assert "scheduled before its forward" in str(error)
        assert isinstance(expected, DeadlockError)
        return
    if isinstance(expected, DeadlockError):
        with pytest.raises(DeadlockError) as raised:
            SimulationEngine(reordered, costs).run()
        assert str(raised.value) == str(expected)
    else:
        assert repr(_spans(SimulationEngine(reordered, costs).run())) == expected


# ----------------------------------------------------------------------------
# Compiled dependency ids
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", _BUILDERS)
@pytest.mark.parametrize("p, m", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_compiled_dependencies_map_back_to_structural_dependencies(name, p, m):
    schedule = _build(name, p, m, slices_per_device=2)
    compiled = schedule.compiled()
    assert list(compiled.passes) == list(schedule.all_passes())
    assert compiled.device_ends[-1] == schedule.total_passes()
    for work, deps in zip(compiled.passes, compiled.dependencies):
        expected = _structural_dependencies(schedule, work)
        assert [compiled.passes[dep] for dep in deps] == expected
        assert schedule.dependencies(work) == expected


# ----------------------------------------------------------------------------
# Error texts
# ----------------------------------------------------------------------------


def _with_order(schedule: PipelineSchedule, device: int, order) -> PipelineSchedule:
    """``schedule`` with one device's pass list replaced, through the constructor."""
    orders = list(schedule.device_orders)
    orders[device] = tuple(order)
    return dataclasses.replace(schedule, device_orders=orders)


def test_deadlock_error_names_the_blocked_passes():
    schedule = build_1f1b_schedule(2, 2)
    forward, backward = PassKind.FORWARD, PassKind.BACKWARD
    # Valid pass lists whose orders wait on each other: device 0 wants
    # mb1's backward before device 1 has run mb0's.
    deadlocked = dataclasses.replace(schedule, device_orders=[
        [Pass(forward, 0, 0, 0), Pass(backward, 0, 0, 0),
         Pass(forward, 1, 0, 0), Pass(backward, 1, 0, 0)],
        [Pass(forward, 1, 1, 1), Pass(forward, 0, 1, 1),
         Pass(backward, 0, 1, 1), Pass(backward, 1, 1, 1)],
    ])
    with pytest.raises(DeadlockError) as raised:
        SimulationEngine(deadlocked, UniformCostProvider()).run()
    assert str(raised.value) == (
        "schedule cannot make progress; blocked passes: B[mb0,s0]@dev0, F[mb1,s1]@dev1"
    )
    # A backward moved ahead of its own forward is rejected when built.
    order = schedule.device_orders[0]
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(schedule, 0, (order[2],) + order[:2] + order[3:])
    assert str(raised.value) == "B[mb0,s0]@dev0 scheduled before its forward on device 0"


def test_missing_dependency_error_names_both_passes():
    schedule = build_1f1b_schedule(2, 2)
    order = schedule.device_orders[0] + (Pass(PassKind.BACKWARD_WEIGHT, 0, 0, 0),)
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(schedule, 0, order)
    assert str(raised.value) == "Bw[mb0,s0]@dev0 depends on missing pass Bi[mb0,s0]@dev0"


def test_invalid_pass_lists_are_rejected_at_construction():
    schedule = build_schedule("gpipe", 2, 3)
    # A pass list cut short misses a backward.
    with pytest.raises(ScheduleValidationError) as raised:
        _with_order(schedule, 1, schedule.device_orders[1][:-1])
    assert str(raised.value) == "missing B for (0, 1, None)"
    # A stage whose passes sit on two devices is reported by the stage map.
    order0 = schedule.device_orders[0]
    moved = [p for p in order0 if p.microbatch == 0]
    orders = [
        [p for p in order0 if p.microbatch != 0],
        list(schedule.device_orders[1]) + [dataclasses.replace(p, device=1) for p in moved],
    ]
    with pytest.raises(ScheduleValidationError) as raised:
        dataclasses.replace(schedule, device_orders=orders)
    assert str(raised.value) == "stage 0 appears on devices 0 and 1"
