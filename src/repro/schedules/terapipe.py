"""TeraPipe-style token-level pipeline schedule.

TeraPipe slices every microbatch along the sequence dimension and pipelines
the slices, which shrinks the warm-up bubble to ``(p - 1) / (n m)``.  It
keeps GPipe's all-forward-then-all-backward structure, however, so the
activations of **all** microbatches accumulate (Table 2) — the critical
memory limitation the paper contrasts SlimPipe against.
"""

from __future__ import annotations

from ..model.costs import PassKind
from .base import Pass, PipelineSchedule

__all__ = ["build_terapipe_schedule"]


def build_terapipe_schedule(
    num_devices: int, num_microbatches: int, num_slices: int
) -> PipelineSchedule:
    """Build a TeraPipe schedule with ``num_slices`` slices per microbatch."""
    p, m, n = num_devices, num_microbatches, num_slices
    if p < 1 or m < 1 or n < 1:
        raise ValueError("num_devices, num_microbatches and num_slices must be >= 1")
    device_orders = []
    for rank in range(p):
        order = [
            Pass(PassKind.FORWARD, mb, rank, rank, slice_index=sl, num_slices=n)
            for mb in range(m)
            for sl in range(n)
        ]
        order += [
            Pass(PassKind.BACKWARD, mb, rank, rank, slice_index=sl, num_slices=n)
            for mb in reversed(range(m))
            for sl in reversed(range(n))
        ]
        device_orders.append(order)
    return PipelineSchedule(
        name="terapipe",
        num_devices=p,
        num_stages=p,
        num_microbatches=m,
        num_slices=n,
        device_orders=device_orders,
    )
