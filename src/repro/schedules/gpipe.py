"""GPipe schedule: all forwards, then all backwards.

GPipe treats a whole microbatch as the atomic unit and accumulates the
activations of every microbatch before any backward starts, which is why its
activation memory grows with ``m`` (Table 2, first row) and its bubble
fraction is ``(p - 1) / m``.
"""

from __future__ import annotations

from ..model.costs import PassKind
from .base import Pass, PipelineSchedule

__all__ = ["build_gpipe_schedule"]


def build_gpipe_schedule(num_devices: int, num_microbatches: int) -> PipelineSchedule:
    """Build a GPipe schedule for ``num_devices`` stages and ``num_microbatches``."""
    if num_devices < 1 or num_microbatches < 1:
        raise ValueError("num_devices and num_microbatches must be >= 1")
    device_orders = []
    for device in range(num_devices):
        order = [
            Pass(PassKind.FORWARD, mb, device, device)
            for mb in range(num_microbatches)
        ]
        order += [
            Pass(PassKind.BACKWARD, mb, device, device)
            for mb in reversed(range(num_microbatches))
        ]
        device_orders.append(order)
    return PipelineSchedule(
        name="gpipe",
        num_devices=num_devices,
        num_stages=num_devices,
        num_microbatches=num_microbatches,
        num_slices=1,
        device_orders=device_orders,
    )
