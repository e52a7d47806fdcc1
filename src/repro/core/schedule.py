"""SlimPipe's slice-level 1F1B pipeline schedule (Section 4.1).

The builder turns a ``(p, m, n, v)`` configuration into a
:class:`~repro.schedules.base.PipelineSchedule` whose unit of work is one
*slice* of a microbatch's sequence rather than a whole microbatch:

* forward passes process the slices of every microbatch in sequence order
  (the KV cache grows slice by slice),
* backward passes run in **reverse** slice order within each microbatch
  (last-in first-out), so that the KV chunk of a slice can be released the
  moment its backward finishes,
* each pipeline rank front-loads a few extra forward passes so that, in the
  steady phase, the forward and backward streams of neighbouring devices are
  aligned ("we put more forward passes ahead to align forward and backward
  passes separately", Section 4.1.2).

With ``v > 1`` the builder produces the interleaving form of Figure 5: every
device hosts ``v`` stages (stage ``chunk * p + rank``), slices are streamed
through the chunks in groups of ``p``, and warm-up depth grows by one chunk
round per extra stage.

The resulting accumulated activation matches Eq. 1 of the paper,

.. math::  M_{acc} = (1 + \\delta)\\,M_a / p, \\qquad \\delta = 2(p-1)/(n v),

counted in slice-stage units: the first rank accumulates ``n v + 2 (p - 1)``
live slice-stage activations before its first backward, each worth
``M_a / (n v p)`` bytes (``tests/test_slimpipe_schedule.py`` checks the unit
counts, and the memory tracker reproduces the byte counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..model.costs import PassKind
from ..schedules.base import Pass, PipelineSchedule

__all__ = [
    "SlimPipeScheduleConfig",
    "build_slimpipe_schedule",
    "warmup_units",
    "accumulated_slice_units",
]


@dataclass(frozen=True)
class SlimPipeScheduleConfig:
    """Shape of a SlimPipe schedule.

    Attributes
    ----------
    num_devices:
        Pipeline parallelism size ``p``.
    num_microbatches:
        Microbatches per iteration ``m``.
    num_slices:
        Slices per sequence ``n``; must be a positive multiple of ``p``
        (Section 4.1.2 requires ``n`` to be a multiple of ``p``).
    num_stages_per_device:
        Virtual stages per device ``v`` (1 = the plain form of Figure 4,
        >1 = the interleaving form of Figure 5).
    """

    num_devices: int
    num_microbatches: int
    num_slices: int
    num_stages_per_device: int = 1

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        if self.num_stages_per_device < 1:
            raise ValueError("num_stages_per_device must be >= 1")
        if self.num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        if self.num_slices % self.num_devices != 0:
            raise ValueError(
                "num_slices must be a multiple of the pipeline size "
                f"({self.num_slices} % {self.num_devices})"
            )

    # Paper-notation aliases -------------------------------------------------
    @property
    def p(self) -> int:
        return self.num_devices

    @property
    def m(self) -> int:
        return self.num_microbatches

    @property
    def n(self) -> int:
        return self.num_slices

    @property
    def v(self) -> int:
        return self.num_stages_per_device

    @property
    def total_stages(self) -> int:
        return self.p * self.v

    @property
    def units_per_device(self) -> int:
        """Slice-stage forward passes each device executes per iteration."""
        return self.m * self.n * self.v


def warmup_units(config: SlimPipeScheduleConfig, rank: int) -> int:
    """Number of forward slice-stage units rank ``rank`` runs before its first backward.

    The first rank accumulates ``n v + 2 (p - 1)`` units and each subsequent
    rank two fewer, clamped to the total number of units (tiny workloads may
    never leave the warm-up phase).
    """
    if not 0 <= rank < config.num_devices:
        raise ValueError(f"rank {rank} out of range [0, {config.num_devices})")
    depth = config.n * config.v + 2 * (config.p - 1 - rank)
    return min(config.units_per_device, depth)


def accumulated_slice_units(config: SlimPipeScheduleConfig, rank: int = 0) -> int:
    """Peak number of live slice-stage activations on ``rank`` (Eq. 1 numerator).

    Equals the warm-up depth: in the steady phase every backward releases one
    unit before the next forward stores one.
    """
    return warmup_units(config, rank)


def _forward_stream(config: SlimPipeScheduleConfig, rank: int) -> List[Pass]:
    """Rank ``rank``'s forward passes in execution order.

    Slices (across the whole microbatch stream) are grouped into blocks of
    ``p``; each block visits every chunk in order before the next block
    starts, exactly as the interleaved rows of Figure 5.
    """
    p, v, n = config.p, config.v, config.n
    forward = PassKind.FORWARD
    return [
        Pass(forward, global_slice // n, chunk * p + rank, rank, global_slice % n, n)
        for block in range(config.units_per_device // (p * v))
        for chunk in range(v)
        for global_slice in range(block * p, block * p + p)
    ]


def _backward_stream(config: SlimPipeScheduleConfig, rank: int) -> List[Pass]:
    """Rank ``rank``'s backward passes in execution order.

    The backward stream mirrors the forward stream: chunks are visited in
    reverse (deepest first) and slices within each microbatch in reverse
    order, so the last slice produced is the first consumed (Section 4.1.2).
    """
    p, v, n = config.p, config.v, config.n
    backward = PassKind.BACKWARD
    return [
        Pass(backward, position // n, chunk * p + rank, rank, n - 1 - position % n, n)
        for block in range(config.units_per_device // (p * v))
        for chunk in reversed(range(v))
        for position in range(block * p, block * p + p)
    ]


def build_slimpipe_schedule(
    num_devices: int,
    num_microbatches: int,
    num_slices: int,
    num_stages_per_device: int = 1,
) -> PipelineSchedule:
    """Build the SlimPipe slice-level 1F1B schedule.

    Parameters mirror the paper's notation (``p``, ``m``, ``n``, ``v``).  The
    schedule is validated when it is constructed and is directly executable
    by :class:`~repro.sim.engine.SimulationEngine`.
    """
    config = SlimPipeScheduleConfig(
        num_devices=num_devices,
        num_microbatches=num_microbatches,
        num_slices=num_slices,
        num_stages_per_device=num_stages_per_device,
    )
    device_orders: List[List[Pass]] = []
    for rank in range(config.p):
        warmup = warmup_units(config, rank)
        forwards = _forward_stream(config, rank)
        backwards = _backward_stream(config, rank)
        # Steady phase: one backward, one forward — backward first because the
        # warm-up already placed the extra forwards ahead (Figure 4); the
        # cool-down then drains the remaining backwards.
        steady = len(forwards) - warmup
        order = forwards[:warmup]
        for pair in zip(backwards, forwards[warmup:]):
            order += pair
        order += backwards[steady:]
        device_orders.append(order)

    return PipelineSchedule(
        name="slimpipe" if config.v == 1 else "slimpipe-interleaved",
        num_devices=config.p,
        num_stages=config.total_stages,
        num_microbatches=config.m,
        num_slices=config.n,
        device_orders=device_orders,
        metadata={
            "num_slices": config.n,
            "num_stages_per_device": config.v,
            "warmup_units": [warmup_units(config, r) for r in range(config.p)],
        },
    )
