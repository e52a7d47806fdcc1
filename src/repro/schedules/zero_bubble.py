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
    """
    p, m = num_devices, num_microbatches
    if p < 1 or m < 1:
        raise ValueError("num_devices and num_microbatches must be >= 1")
    duration_fn = duration_fn or _uniform_duration
    memory_limit_units = max(2, p if half_memory else 2 * p)

    num_stages = 2 * p
    stage_device = {
        v_shape_stage_of(chunk, rank, p): rank for rank in range(p) for chunk in (0, 1)
    }

    # Passes are keyed ``(priority, microbatch, stage)``: the priority tells
    # the three kinds apart and hashes faster than the kind itself.
    forward = _PRIORITY[PassKind.FORWARD]
    input_grad = _PRIORITY[PassKind.BACKWARD_INPUT]

    def dependencies(priority: int, mb: int, stage: int) -> Tuple[Tuple[int, int, int], ...]:
        if priority == forward:
            return ((forward, mb, stage - 1),) if stage > 0 else ()
        if priority == input_grad:
            if stage < num_stages - 1:
                return ((forward, mb, stage), (input_grad, mb, stage + 1))
            return ((forward, mb, stage),)
        return ((input_grad, mb, stage),)

    # All passes that must be scheduled, grouped per device, with their
    # priority and dependency keys -----------------------------------------
    pending: List[List[Tuple[Pass, int, tuple]]] = [[] for _ in range(p)]
    for mb in range(m):
        for stage in range(num_stages):
            for kind in (PassKind.FORWARD, PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT):
                work = Pass(kind, mb, stage, stage_device[stage])
                priority = _PRIORITY[kind]
                pending[work.device].append((work, priority, dependencies(priority, mb, stage)))

    completion: Dict[Tuple[int, int, int], float] = {}
    device_time = [0.0] * p
    in_flight = [0] * p
    device_orders: List[List[Pass]] = [[] for _ in range(p)]

    total = sum(len(items) for items in pending)
    scheduled = 0
    while scheduled < total:
        best: Optional[Tuple[float, int, int, int, int, int]] = None  # est, prio, -stage, mb, dev, idx
        for device in range(p):
            for index, (work, priority, deps) in enumerate(pending[device]):
                if priority == forward:
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
                for dep in deps:
                    finish = completion.get(dep)
                    if finish is None:
                        break
                    if finish > ready:
                        ready = finish
                else:
                    candidate = (
                        ready,
                        priority,
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
                f"passes remaining under an in-flight cap of {memory_limit_units}"
            )
        ready, _, _, _, device, index = best
        work, priority, _ = pending[device].pop(index)
        start = max(ready, device_time[device])
        finish = start + duration_fn(work)
        device_time[device] = finish
        completion[(priority, work.microbatch, work.stage)] = finish
        device_orders[device].append(work)
        if work.kind is PassKind.FORWARD:
            in_flight[device] += 1
        elif work.kind is PassKind.BACKWARD_WEIGHT:
            in_flight[device] -= 1
        scheduled += 1

    return PipelineSchedule(
        name="v-half" if half_memory else "zb-v",
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
