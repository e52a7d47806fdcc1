"""The compiled-id simulator reproduces the Pass-keyed round-robin loop exactly.

``SimulationEngine.run`` executes a schedule's :class:`CompiledSchedule`:
integer pass ids, dependency ids resolved once, durations and transfer
delays priced once, a flat finish-time list.  ``_ReferenceEngine`` below is
the loop it replaced, kept verbatim as the oracle: it resolves every
dependency through ``PipelineSchedule.dependencies`` and a dict keyed by
``(kind, work_key)``.  For every schedule builder and generated costs the
two must produce the same spans, bit for bit and in the same order (the
order ``Timeline.busy_time`` sums in), and the same errors.

The example budget is small in the tier-1 suite; set
``REPRO_SIM_ORACLE_EXAMPLES`` (e.g. 300) for a deeper run.
"""

import os
from typing import Dict, Tuple

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


class _ReferenceEngine:
    """The round-robin loop over ``Pass`` objects that the compiled engine replaced."""

    def __init__(self, schedule, costs):
        self.schedule = schedule
        self.costs = costs

    def run(self) -> Timeline:
        schedule = self.schedule
        orders = schedule.device_orders
        num_devices = schedule.num_devices
        pointers = [0] * num_devices
        device_time = [0.0] * num_devices
        finished: Dict[Tuple, Tuple[float, Pass]] = {}
        timeline = Timeline(num_devices=num_devices)
        remaining = schedule.total_passes()

        while remaining > 0:
            progressed = False
            for device in range(num_devices):
                while pointers[device] < len(orders[device]):
                    work = orders[device][pointers[device]]
                    ready_time = device_time[device]
                    blocked = False
                    for dep in schedule.dependencies(work):
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
    """A device order shuffled after the build is simulated from its current lists."""
    SimulationEngine(schedule, costs).run()  # caches the compiled form
    device = data.draw(st.integers(0, schedule.num_devices - 1))
    order = schedule.device_orders[device]
    order[:] = data.draw(st.permutations(order))
    try:
        expected = repr(_spans(_ReferenceEngine(schedule, costs).run()))
    except DeadlockError as error:
        with pytest.raises(DeadlockError) as raised:
            SimulationEngine(schedule, costs).run()
        assert str(raised.value) == str(error)
    else:
        assert repr(_spans(SimulationEngine(schedule, costs).run())) == expected


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
        assert [compiled.passes[dep] for dep in deps] == schedule.dependencies(work)


# ----------------------------------------------------------------------------
# Staleness and error texts
# ----------------------------------------------------------------------------


def test_deadlock_error_names_the_blocked_passes():
    schedule = build_1f1b_schedule(2, 2)
    SimulationEngine(schedule, UniformCostProvider()).run()
    order = schedule.device_orders[0]
    backward = next(p for p in order if p.kind is PassKind.BACKWARD)
    order.remove(backward)
    order.insert(0, backward)
    with pytest.raises(DeadlockError) as raised:
        SimulationEngine(schedule, UniformCostProvider()).run()
    assert str(raised.value) == (
        "schedule cannot make progress; blocked passes: B[mb0,s0]@dev0, F[mb0,s1]@dev1"
    )


def test_missing_dependency_error_names_both_passes():
    schedule = build_1f1b_schedule(2, 2)
    schedule.device_orders[0].append(Pass(PassKind.BACKWARD_WEIGHT, 0, 0, 0))
    with pytest.raises(ScheduleValidationError) as raised:
        schedule.validate()
    assert str(raised.value) == "Bw[mb0,s0]@dev0 depends on missing pass Bi[mb0,s0]@dev0"


def test_mutated_schedule_is_validated_and_simulated_from_its_current_lists():
    schedule = build_schedule("gpipe", 2, 3)
    costs = UniformCostProvider(forward=1.0, backward=2.0, comm=0.5)
    before = repr(_spans(SimulationEngine(schedule, costs).run()))
    # Swapping two independent forwards is still a valid schedule.
    order = schedule.device_orders[0]
    order[0], order[1] = order[1], order[0]
    schedule.validate()
    after = repr(_spans(SimulationEngine(schedule, costs).run()))
    assert after != before
    assert after == repr(_spans(_ReferenceEngine(schedule, costs).run()))
    # A whole list replaced after validation is caught too.
    schedule.device_orders[1] = schedule.device_orders[1][:-1]
    with pytest.raises(ScheduleValidationError, match="missing"):
        schedule.validate()
    # So is a stage moved onto a second device, which the stage map reports.
    schedule = build_schedule("gpipe", 2, 3)
    schedule.validate()
    schedule.device_orders[1].append(Pass(PassKind.FORWARD, 0, 0, 1))
    with pytest.raises(ScheduleValidationError, match="appears on devices 0 and 1"):
        schedule.stage_to_device()
