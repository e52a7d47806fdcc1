"""Discrete-event execution of a pipeline schedule.

Every device executes its pass list strictly in order; a pass starts as soon
as (a) the device is free and (b) each structural dependency has finished and
its cross-device transfer (if any) has arrived.  The engine therefore turns a
:class:`~repro.schedules.base.PipelineSchedule` plus a cost provider into a
:class:`~repro.sim.timeline.Timeline`, from which bubbles, makespans and MFU
are computed.

The engine runs on the schedule's compiled form
(:meth:`~repro.schedules.base.PipelineSchedule.compiled`): integer pass ids
with their dependency ids, resolved once when the (immutable) schedule was
constructed and validated, so every dependency exists.  It prices every pass's duration
and every cross-device edge's transfer delay once, up front, and keeps a
flat list of finish times by id.  Devices are visited round robin (device 0
to ``p - 1``, each advancing as far as its dependencies allow), and spans
are appended in that order, which fixes the order ``Timeline.busy_time``
sums them in.  ``tests/test_sim_compiled_oracle.py`` keeps the earlier loop
over ``Pass`` objects as the oracle and requires the same spans, bit for bit
and in the same order.

The engine is deliberately conservative: if the schedule can never make
progress (a dependency appears *behind* a blocked pass), it raises
:class:`DeadlockError` rather than silently reordering work — this doubles
as an executability check for every schedule builder in the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from ..schedules.base import Pass, PipelineSchedule
from .timeline import Timeline, TimelineSpan

__all__ = ["PassCostProvider", "UniformCostProvider", "DeadlockError", "SimulationEngine"]


class DeadlockError(RuntimeError):
    """The schedule cannot be executed in the given per-device order."""


class PassCostProvider(Protocol):
    """Durations and transfer delays the engine needs to time a schedule."""

    def duration(self, work: Pass) -> float:
        """Compute time of ``work`` on its device, in seconds."""
        ...

    def comm_delay(self, producer: Pass, consumer: Pass) -> float:
        """Transfer delay between a dependency and its consumer, in seconds.

        Only asked for a dependency on another device: a dependency on the
        consumer's own device has no transfer.
        """
        ...


class UniformCostProvider:
    """Simple cost provider: fixed durations per pass kind, optional comm delay.

    Useful for structural tests and for reproducing "theoretical" bubble
    fractions where every pass costs one unit.
    """

    def __init__(
        self,
        forward: float = 1.0,
        backward: float = 2.0,
        backward_input: Optional[float] = None,
        backward_weight: Optional[float] = None,
        comm: float = 0.0,
    ):
        self.forward = forward
        self.backward = backward
        self.backward_input = backward_input if backward_input is not None else backward / 2
        self.backward_weight = backward_weight if backward_weight is not None else backward / 2
        self.comm = comm

    def duration(self, work: Pass) -> float:
        kind = work.kind.value
        if kind == "F":
            return self.forward
        if kind == "B":
            return self.backward
        if kind == "Bi":
            return self.backward_input
        return self.backward_weight

    def comm_delay(self, producer: Pass, consumer: Pass) -> float:
        return self.comm if producer.device != consumer.device else 0.0


class SimulationEngine:
    """Execute a schedule against a cost provider and produce a timeline."""

    def __init__(self, schedule: PipelineSchedule, costs: PassCostProvider):
        self.schedule = schedule
        self.costs = costs

    def run(self) -> Timeline:
        compiled = self.schedule.compiled()
        passes = compiled.passes
        duration, comm_delay = self.costs.duration, self.costs.comm_delay
        durations = [duration(work) for work in passes]
        # Transfer delays aligned with ``dependencies``.  A dependency on the
        # same device has no transfer.  Equal tuples are shared, so the delays
        # add almost no memory.
        dependencies = compiled.dependencies
        delays = []
        shared: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
        for work, deps in zip(passes, dependencies):
            device = work.device
            pass_delays = tuple([
                0.0 if passes[dep].device == device else comm_delay(passes[dep], work)
                for dep in deps
            ])
            delays.append(shared.setdefault(pass_delays, pass_delays))
        # Finish time by id, ``None`` until the pass has run.
        finish: List[Optional[float]] = [None] * len(passes)

        num_devices = self.schedule.num_devices
        device_ends = compiled.device_ends
        pointers = [0, *device_ends[:-1]]
        device_time = [0.0] * num_devices
        timeline = Timeline(num_devices=num_devices)
        spans = timeline.spans
        remaining = len(passes)

        # Round robin over the devices, each advancing as far as it can:
        # the span order (which ``Timeline.busy_time`` sums in) is fixed.
        while remaining > 0:
            progressed = False
            for device in range(num_devices):
                first = index = pointers[device]
                end = device_ends[device]
                now = device_time[device]
                while index < end:
                    start = now
                    for dep, delay in zip(dependencies[index], delays[index]):
                        dep_finish = finish[dep]
                        if dep_finish is None:
                            break
                        dep_finish = dep_finish + delay
                        if dep_finish > start:
                            start = dep_finish
                    else:
                        now = start + durations[index]
                        spans.append(TimelineSpan(device, passes[index], start, now))
                        finish[index] = now
                        index += 1
                        continue
                    break
                if index != first:
                    pointers[device] = index
                    device_time[device] = now
                    remaining -= index - first
                    progressed = True
            if not progressed:
                stuck = [
                    passes[pointers[d]].describe()
                    for d in range(num_devices)
                    if pointers[d] < device_ends[d]
                ]
                raise DeadlockError(
                    "schedule cannot make progress; blocked passes: " + ", ".join(stuck)
                )
        return timeline
