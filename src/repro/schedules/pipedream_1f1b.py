"""PipeDream-Flush / DAPPLE one-forward-one-backward (1F1B) schedule.

The default 1F1B schedule (Figure 4, top): each device runs a warm-up of
forwards, then alternates one forward and one backward, then drains the
remaining backwards.  Peak in-flight activations on the first device equal
``p`` microbatches, independent of ``m`` — the memory behaviour SlimPipe
improves on — while the bubble fraction stays at ``(p - 1) / m`` (Table 2).
"""

from __future__ import annotations

from ..model.costs import PassKind
from .base import Pass, PipelineSchedule

__all__ = ["build_1f1b_schedule"]


def build_1f1b_schedule(num_devices: int, num_microbatches: int) -> PipelineSchedule:
    """Build the default (non-interleaved) 1F1B schedule."""
    if num_devices < 1 or num_microbatches < 1:
        raise ValueError("num_devices and num_microbatches must be >= 1")
    p, m = num_devices, num_microbatches
    device_orders = []
    for rank in range(p):
        warmup = min(p - rank - 1, m)
        steady = m - warmup
        order = []
        forward_mb = 0
        backward_mb = 0
        for _ in range(warmup):
            order.append(Pass(PassKind.FORWARD, forward_mb, rank, rank))
            forward_mb += 1
        for _ in range(steady):
            order.append(Pass(PassKind.FORWARD, forward_mb, rank, rank))
            forward_mb += 1
            order.append(Pass(PassKind.BACKWARD, backward_mb, rank, rank))
            backward_mb += 1
        for _ in range(warmup):
            order.append(Pass(PassKind.BACKWARD, backward_mb, rank, rank))
            backward_mb += 1
        device_orders.append(order)
    return PipelineSchedule(
        name="1f1b",
        num_devices=p,
        num_stages=p,
        num_microbatches=m,
        num_slices=1,
        device_orders=device_orders,
    )
