"""Interleaved 1F1B schedule (Megatron-LM virtual pipeline).

Each device hosts ``v`` non-contiguous model chunks (stage ``chunk * p + rank``
for chunk ``0..v-1``), and microbatches are streamed through the chunks in
groups of ``p``.  Compared with the default 1F1B this divides the warm-up
bubble by ``v`` at the price of a slightly higher activation peak
(``1 + (p - 1) / (v p)`` microbatches, Table 2).

The unit ordering and warm-up sizes follow Megatron-LM's implementation,
including its requirement that the number of microbatches be a multiple of
the pipeline size — the constraint that, as Section 6.4 notes, prevents the
baseline from scaling when long contexts shrink the batch.
"""

from __future__ import annotations

from ..model.costs import PassKind
from .base import Pass, PipelineSchedule

__all__ = ["build_interleaved_1f1b_schedule"]


def _unit_to_pass(
    unit: int,
    rank: int,
    num_devices: int,
    num_chunks: int,
    forward: bool,
) -> Pass:
    """Map the ``unit``-th forward (or backward) work unit of a device to a pass."""
    p, v = num_devices, num_chunks
    group = unit // (p * v)
    within = unit % (p * v)
    chunk = within // p
    if not forward:
        chunk = v - 1 - chunk
    microbatch = group * p + within % p
    stage = chunk * p + rank
    kind = PassKind.FORWARD if forward else PassKind.BACKWARD
    return Pass(kind, microbatch, stage, rank)


def build_interleaved_1f1b_schedule(
    num_devices: int, num_microbatches: int, num_chunks: int
) -> PipelineSchedule:
    """Build the interleaved 1F1B schedule with ``num_chunks`` stages per device."""
    p, m, v = num_devices, num_microbatches, num_chunks
    if p < 1 or m < 1 or v < 1:
        raise ValueError("num_devices, num_microbatches and num_chunks must be >= 1")
    if v > 1 and m % p != 0:
        raise ValueError(
            "interleaved 1F1B requires the number of microbatches to be a "
            f"multiple of the pipeline size (m={m}, p={p})"
        )
    total_units = m * v
    device_orders = []
    for rank in range(p):
        if m == p and v > 1:
            warmup = total_units
        else:
            warmup = min(total_units, 2 * (p - rank - 1) + (v - 1) * p)
        order = []
        forward_unit = 0
        backward_unit = 0
        for _ in range(warmup):
            order.append(_unit_to_pass(forward_unit, rank, p, v, forward=True))
            forward_unit += 1
        for _ in range(total_units - warmup):
            order.append(_unit_to_pass(forward_unit, rank, p, v, forward=True))
            forward_unit += 1
            order.append(_unit_to_pass(backward_unit, rank, p, v, forward=False))
            backward_unit += 1
        while backward_unit < total_units:
            order.append(_unit_to_pass(backward_unit, rank, p, v, forward=False))
            backward_unit += 1
        device_orders.append(order)
    return PipelineSchedule(
        name="interleaved-1f1b",
        num_devices=p,
        num_stages=p * v,
        num_microbatches=m,
        num_slices=1,
        device_orders=device_orders,
        metadata={"num_chunks": v},
    )
