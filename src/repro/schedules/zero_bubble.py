"""Zero-bubble V-shaped schedules (ZB-V and V-Half).

Zero Bubble Pipeline Parallelism splits every backward pass into an
activation-gradient half (``Bi``) and a weight-gradient half (``Bw``) and
assigns each device two model chunks arranged in a "V": device ``r`` holds
stage ``r`` on the way down and stage ``2p - 1 - r`` on the way back up.
``Bw`` passes have no cross-device dependencies, so they can be used to fill
what would otherwise be bubbles; when ``T_f = T_b = T_w`` the pipeline is
bubble-free.

The original systems hand-craft (or ILP-solve) the pass order for specific
``T_f/T_b/T_w`` ratios.  This reproduction uses a timing-aware greedy list
scheduler with the same ingredients — V-shaped placement, split backward,
``Bw`` as filler, a per-device in-flight activation cap (``2p`` stage
activations for ZB-V, ``p`` for V-Half, matching "same as 1F1B" and "half of
1F1B") — which reproduces the qualitative behaviour the paper discusses:
near-zero bubbles when the three pass types are balanced, and growing
*imbalance bubbles* when causal attention makes ``T_b`` dominate
(Section 2.2).  The greedy scheduler stands in for the original
hand-crafted / ILP pass orders, so every ZB-V and V-Half number in the
scheme-comparison experiments (Figures 2, 3, 13 and 14) is this scheduler's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..model.costs import PassKind
from .base import Pass, PipelineSchedule, ScheduleValidationError

__all__ = ["build_zero_bubble_v_schedule", "v_shape_stage_of"]

DurationFn = Callable[[Pass], float]

#: Tie-break priority: keep the activation-gradient chain moving, then start
#: new forwards, and use weight-gradient passes as bubble filler.
_PRIORITY = {
    PassKind.BACKWARD_INPUT: 0,
    PassKind.FORWARD: 1,
    PassKind.BACKWARD_WEIGHT: 2,
}


def v_shape_stage_of(chunk: int, rank: int, num_devices: int) -> int:
    """Stage index handled by ``rank`` for V-chunk ``chunk`` (0 = down, 1 = up)."""
    if chunk == 0:
        return rank
    if chunk == 1:
        return 2 * num_devices - 1 - rank
    raise ValueError("the V shape has exactly two chunks per device")


def _uniform_duration(_: Pass) -> float:
    return 1.0


def build_zero_bubble_v_schedule(
    num_devices: int,
    num_microbatches: int,
    duration_fn: Optional[DurationFn] = None,
    half_memory: bool = False,
    memory_limit_units: Optional[int] = None,
    name: Optional[str] = None,
) -> PipelineSchedule:
    """Build a ZB-V (or, with ``half_memory``, a V-Half) schedule.

    Parameters
    ----------
    duration_fn:
        Estimated duration of each pass, used to decide which ready pass to
        run next (the zero-bubble idea needs timing knowledge).  Defaults to
        uniform durations.
    half_memory:
        Build the V-Half variant, capping in-flight activations at half of
        ZB-V's budget.
    memory_limit_units:
        Override the per-device cap on in-flight stage activations.
    """
    p, m = num_devices, num_microbatches
    if p < 1 or m < 1:
        raise ValueError("num_devices and num_microbatches must be >= 1")
    duration_fn = duration_fn or _uniform_duration
    if memory_limit_units is None:
        memory_limit_units = p if half_memory else 2 * p
    memory_limit_units = max(2, memory_limit_units)
    schedule_name = name or ("v-half" if half_memory else "zb-v")

    num_stages = 2 * p
    stage_device = {
        v_shape_stage_of(chunk, rank, p): rank for rank in range(p) for chunk in (0, 1)
    }

    def make_pass(kind: PassKind, mb: int, stage: int) -> Pass:
        return Pass(kind, mb, stage, stage_device[stage])

    # All passes that must be scheduled, grouped per device ------------------
    pending: List[List[Pass]] = [[] for _ in range(p)]
    for mb in range(m):
        for stage in range(num_stages):
            for kind in (PassKind.FORWARD, PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT):
                work = make_pass(kind, mb, stage)
                pending[work.device].append(work)

    completion: Dict[Tuple[PassKind, Tuple[int, int, Optional[int]]], float] = {}
    device_time = [0.0] * p
    in_flight = [0] * p
    device_orders: List[List[Pass]] = [[] for _ in range(p)]

    def dependencies(work: Pass) -> List[Pass]:
        deps: List[Pass] = []
        if work.kind is PassKind.FORWARD:
            if work.stage > 0:
                deps.append(make_pass(PassKind.FORWARD, work.microbatch, work.stage - 1))
        elif work.kind is PassKind.BACKWARD_INPUT:
            deps.append(make_pass(PassKind.FORWARD, work.microbatch, work.stage))
            if work.stage < num_stages - 1:
                deps.append(
                    make_pass(PassKind.BACKWARD_INPUT, work.microbatch, work.stage + 1)
                )
        else:  # BACKWARD_WEIGHT
            deps.append(make_pass(PassKind.BACKWARD_INPUT, work.microbatch, work.stage))
        return deps

    total = sum(len(items) for items in pending)
    scheduled = 0
    while scheduled < total:
        best: Optional[Tuple[float, int, int, int, int, int]] = None  # est, prio, -stage, mb, dev, idx
        for device in range(p):
            for index, work in enumerate(pending[device]):
                if work.kind is PassKind.FORWARD:
                    # Respect the activation cap, and keep the final slot
                    # reserved for up-leg (second chunk) forwards so the
                    # backward chain that starts at the V's last stage can
                    # always be reached — otherwise early down-leg forwards
                    # can fill the budget and deadlock the pipeline.
                    if in_flight[device] >= memory_limit_units:
                        continue
                    if (
                        in_flight[device] == memory_limit_units - 1
                        and work.stage < p
                    ):
                        continue
                ready = device_time[device]
                blocked = False
                for dep in dependencies(work):
                    key = (dep.kind, dep.work_key)
                    if key not in completion:
                        blocked = True
                        break
                    ready = max(ready, completion[key])
                if blocked:
                    continue
                candidate = (
                    ready,
                    _PRIORITY[work.kind],
                    -work.stage,  # push in-flight microbatches deeper first
                    work.microbatch,
                    device,
                    index,
                )
                if best is None or candidate < best:
                    best = candidate
        if best is None:
            raise ScheduleValidationError(
                f"greedy zero-bubble scheduler deadlocked with {total - scheduled} "
                "passes remaining; consider raising memory_limit_units"
            )
        ready, _, _, _, device, index = best
        work = pending[device].pop(index)
        start = max(ready, device_time[device])
        finish = start + duration_fn(work)
        device_time[device] = finish
        completion[(work.kind, work.work_key)] = finish
        device_orders[device].append(work)
        if work.kind is PassKind.FORWARD:
            in_flight[device] += 1
        elif work.kind is PassKind.BACKWARD_WEIGHT:
            in_flight[device] -= 1
        scheduled += 1

    schedule = PipelineSchedule(
        name=schedule_name,
        num_devices=p,
        num_stages=num_stages,
        num_microbatches=m,
        num_slices=1,
        device_orders=device_orders,
        splits_backward=True,
        metadata={
            "memory_limit_units": memory_limit_units,
            "half_memory": half_memory,
        },
    )
    schedule.validate()
    return schedule
