"""Pipeline schedule abstraction.

A *schedule* is, for every pipeline device, the ordered list of passes the
device executes in one training iteration.  A :class:`Pass` is the unit of
work the paper calls a computational unit: a forward or backward of one
microbatch (classic schemes), of one sequence slice (SlimPipe, TeraPipe),
optionally restricted to the input-gradient or weight-gradient half of the
backward pass (zero-bubble schemes).

A schedule is an immutable value: its pass lists are tuples, and it is
validated and compiled once, when it is constructed, so an invalid schedule
raises :class:`ScheduleValidationError` instead of existing.  Compiling
numbers the passes ``0..n-1`` and resolves the structural dependencies
between them to ids:

* a forward needs the same slice's forward on the previous stage, and — for
  sliced schedules — the previous slice's forward on the *same* stage (its
  keys/values must be in the KV cache);
* a backward needs the same slice's forward on its own stage and the same
  slice's backward on the next stage, and — for sliced schedules — the
  *next* slice's backward on the same stage (gradients flow into earlier
  slices' keys/values through causal attention);
* a weight-gradient pass needs its matching input-gradient pass.

:meth:`PipelineSchedule.compiled` returns that form, and
:meth:`PipelineSchedule.dependencies`, the discrete-event simulator and the
memory tracker in :mod:`repro.sim` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..model.costs import PassKind

__all__ = ["CompiledSchedule", "Pass", "PipelineSchedule", "ScheduleValidationError"]


class ScheduleValidationError(ValueError):
    """Raised when a schedule violates a structural invariant."""


@dataclass(frozen=True)
class Pass:
    """One unit of pipeline work.

    Attributes
    ----------
    kind:
        Forward, combined backward, or one of the split backward halves.
    microbatch:
        Zero-based microbatch index.
    stage:
        Global stage index in ``[0, p*v)``; stage 0 holds the embedding and
        the last stage the output layer (unless vocabulary parallelism is on).
    device:
        Pipeline rank executing the pass.
    slice_index:
        Zero-based sequence slice for sliced schedules, ``None`` when the
        whole microbatch is the unit of work.
    num_slices:
        Number of slices each microbatch is split into (1 when unsliced).
    """

    kind: PassKind
    microbatch: int
    stage: int
    device: int
    slice_index: Optional[int] = None
    num_slices: int = 1

    def __post_init__(self) -> None:
        if self.microbatch < 0 or self.stage < 0 or self.device < 0:
            raise ValueError("microbatch, stage and device must be non-negative")
        if self.num_slices < 1:
            raise ValueError("num_slices must be >= 1")
        if self.slice_index is not None and not 0 <= self.slice_index < self.num_slices:
            raise ValueError(
                f"slice_index {self.slice_index} out of range [0, {self.num_slices})"
            )

    # ------------------------------------------------------------------
    @property
    def is_forward(self) -> bool:
        return self.kind is PassKind.FORWARD

    @property
    def is_backward(self) -> bool:
        return self.kind in (PassKind.BACKWARD, PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT)

    @property
    def work_key(self) -> Tuple[int, int, Optional[int]]:
        """Identity of the work item independent of pass kind."""
        return (self.microbatch, self.stage, self.slice_index)

    def with_kind(self, kind: PassKind) -> "Pass":
        return Pass(
            kind=kind,
            microbatch=self.microbatch,
            stage=self.stage,
            device=self.device,
            slice_index=self.slice_index,
            num_slices=self.num_slices,
        )

    def describe(self) -> str:
        """Human-readable label, e.g. ``F[mb0,s3,slice2]@dev1``."""
        slice_part = f",slice{self.slice_index}" if self.slice_index is not None else ""
        return f"{self.kind.value}[mb{self.microbatch},s{self.stage}{slice_part}]@dev{self.device}"


class _MissingPass(KeyError):
    """A ``(kind, work key)`` lookup found no pass."""


class _PassIds(dict):
    """Pass id of one kind by ``(microbatch, stage, slice)``; a miss names the pass."""

    def __init__(self, kind: PassKind):
        super().__init__()
        self.kind = kind

    def __missing__(self, key: Tuple[int, int, Optional[int]]) -> int:
        raise _MissingPass(self.kind, key)


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule's passes as integer ids, with dependencies resolved to ids.

    Ids run device by device in list order: device ``d`` executes ids
    ``range(device_ends[d - 1], device_ends[d])`` (from 0 for device 0).
    ``dependencies[i]`` lists the ids of pass ``i``'s prerequisites, in the
    order of the module docstring's rules.
    """

    passes: Tuple[Pass, ...]
    device_ends: Tuple[int, ...]
    dependencies: Tuple[Tuple[int, ...], ...]
    #: Pass id by kind, then by ``(microbatch, stage, slice)`` work key.
    ids: Dict[PassKind, Dict[Tuple[int, int, Optional[int]], int]]
    #: Device of each stage.
    stage_device: Dict[int, int]


def _compile(schedule: "PipelineSchedule") -> CompiledSchedule:
    """Validate a schedule's pass lists and resolve its dependencies to ids.

    Raises :class:`ScheduleValidationError` at the first violated invariant,
    in the order :meth:`PipelineSchedule.validate` lists them.
    """
    orders = schedule.device_orders
    if len(orders) != schedule.num_devices:
        raise ScheduleValidationError(
            f"expected {schedule.num_devices} device lists, got {len(orders)}"
        )
    num_stages, num_microbatches = schedule.num_stages, schedule.num_microbatches
    num_slices = schedule.num_slices
    forward, combined = PassKind.FORWARD, PassKind.BACKWARD
    input_grad, weight_grad = PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT
    ids = {kind: _PassIds(kind) for kind in (forward, combined, input_grad, weight_grad)}
    forward_ids, combined_ids = ids[forward], ids[combined]
    input_ids, weight_ids = ids[input_grad], ids[weight_grad]
    passes = tuple(chain.from_iterable(orders))
    stage_device: Dict[int, int] = {}
    stage_conflict = None
    keys = []
    i = 0
    # Kinds are told apart by identity: PassKind hashes in Python code.
    for device, order in enumerate(orders):
        for p in order:
            if p.device != device:
                raise ScheduleValidationError(
                    f"pass {p.describe()} stored in device {device}'s list"
                )
            if p.stage >= num_stages:
                raise ScheduleValidationError(
                    f"pass {p.describe()} references stage >= {num_stages}"
                )
            if p.microbatch >= num_microbatches:
                raise ScheduleValidationError(
                    f"pass {p.describe()} references microbatch >= {num_microbatches}"
                )
            if p.num_slices != num_slices:
                raise ScheduleValidationError(
                    f"pass {p.describe()} disagrees with schedule num_slices={num_slices}"
                )
            key = (p.microbatch, p.stage, p.slice_index)
            keys.append(key)
            kind = p.kind
            if kind is forward:
                forward_ids[key] = i
            elif kind is combined:
                combined_ids[key] = i
            elif kind is input_grad:
                input_ids[key] = i
            else:
                weight_ids[key] = i
            existing = stage_device.setdefault(p.stage, device)
            if existing != device and stage_conflict is None:
                stage_conflict = f"stage {p.stage} appears on devices {existing} and {device}"
            i += 1

    # Exactly-once bookkeeping -------------------------------------------
    # The id tables hold one entry per key: fewer than passes = duplicates.
    if sum(map(len, ids.values())) < len(passes):
        seen = set()
        for p in passes:
            key = (p.kind, p.work_key)
            if key in seen:
                raise ScheduleValidationError(f"duplicate pass {p.describe()}")
            seen.add(key)
    uses_slices = any(p.slice_index is not None for p in passes)
    slices = list(range(num_slices)) if uses_slices else [None]
    grad_kinds = (input_grad, weight_grad) if schedule.splits_backward else (combined,)
    for mb in range(num_microbatches):
        for stage in range(num_stages):
            for sl in slices:
                work = (mb, stage, sl)
                if work not in forward_ids:
                    raise ScheduleValidationError(f"missing forward for {work}")
                for kind in grad_kinds:
                    if work not in ids[kind]:
                        raise ScheduleValidationError(f"missing {kind.value} for {work}")

    # Per-device forward-before-backward ----------------------------------
    # Passes are unique here, so a backward's forward ran before it on its
    # device exactly when the forward's id lies in between.
    device_ends = tuple(accumulate(map(len, orders)))
    first = 0
    for device, end in enumerate(device_ends):
        for i in range(first, end):
            p = passes[i]
            if p.kind is not forward and not first <= forward_ids.get(keys[i], -1) < i:
                raise ScheduleValidationError(
                    f"{p.describe()} scheduled before its forward on device {device}"
                )
        first = end

    if stage_conflict is not None:
        raise ScheduleValidationError(stage_conflict)

    # Dependencies, which must exist ---------------------------------------
    last_stage = num_stages - 1
    grad_ids = input_ids if schedule.splits_backward else combined_ids
    dependencies = []
    try:
        for p, key in zip(passes, keys):
            mb, stage, sl = key
            kind = p.kind
            if kind is forward:
                deps = (forward_ids[mb, stage - 1, sl],) if stage > 0 else ()
                if sl is not None and sl > 0:
                    deps += (forward_ids[mb, stage, sl - 1],)
            elif kind is weight_grad:
                deps = (input_ids[key],)
            else:
                deps = (forward_ids[key],)
                if stage < last_stage:
                    deps += (grad_ids[mb, stage + 1, sl],)
                if sl is not None and sl < num_slices - 1:
                    deps += (grad_ids[mb, stage, sl + 1],)
            dependencies.append(deps)
    except _MissingPass as error:
        kind, (mb, stage, sl) = error.args
        dep = Pass(kind, mb, stage, stage_device[stage], sl, num_slices)
        raise ScheduleValidationError(
            f"{p.describe()} depends on missing pass {dep.describe()}"
        ) from None
    return CompiledSchedule(
        passes=passes,
        device_ends=device_ends,
        dependencies=tuple(dependencies),
        ids=ids,
        stage_device=stage_device,
    )


@dataclass(frozen=True)
class PipelineSchedule:
    """An ordered per-device tuple of passes plus the structural metadata.

    Immutable: the pass lists are stored as tuples, and the schedule is
    validated and compiled once, when it is constructed, so an invalid
    schedule raises :class:`ScheduleValidationError` and never exists.
    """

    name: str
    num_devices: int
    num_stages: int
    num_microbatches: int
    num_slices: int
    device_orders: Tuple[Tuple[Pass, ...], ...]
    splits_backward: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)
    _compiled: CompiledSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "device_orders", tuple(map(tuple, self.device_orders)))
        object.__setattr__(self, "_compiled", _compile(self))

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def stages_per_device(self) -> int:
        return self.num_stages // self.num_devices

    def all_passes(self) -> Iterator[Pass]:
        return iter(self._compiled.passes)

    def passes_on_device(self, device: int) -> Sequence[Pass]:
        return self.device_orders[device]

    def stage_to_device(self) -> Dict[int, int]:
        """Stage → device map (a stage never spans two devices)."""
        return self._compiled.stage_device

    def compiled(self) -> CompiledSchedule:
        """The integer-id form built at construction (see :class:`CompiledSchedule`)."""
        return self._compiled

    def total_passes(self) -> int:
        return len(self._compiled.passes)

    def dependencies(self, p: Pass) -> List[Pass]:
        """Structural prerequisites of pass ``p`` of this schedule (see the module docstring).

        Raises :class:`KeyError` when the schedule has no such pass.
        """
        compiled = self._compiled
        passes = compiled.passes
        return [passes[dep] for dep in compiled.dependencies[compiled.ids[p.kind][p.work_key]]]

    def validate(self) -> None:
        """Check structural invariants; raises :class:`ScheduleValidationError`.

        The constructor runs these checks, so a constructed schedule always
        passes; they are, in the order reported:

        * device lists agree with the declared shape (devices, stages,
          microbatches, slices),
        * every (microbatch, stage, slice) has exactly one forward and one
          complete backward (combined, or input+weight when split),
        * on every device a backward never precedes its own forward,
        * every stage runs on one device,
        * every dependency of every pass exists somewhere in the schedule.
        """
        _compile(self)

    # ------------------------------------------------------------------
    def warmup_forward_counts(self) -> List[int]:
        """Number of forwards each device runs before its first backward."""
        counts = []
        for order in self.device_orders:
            count = 0
            for p in order:
                if p.kind is PassKind.FORWARD:
                    count += 1
                elif p.is_backward:
                    break
            counts.append(count)
        return counts

    def max_inflight_activations(self) -> List[int]:
        """Peak number of live forward activations per device.

        A forward adds one unit of live activation; the pass completing the
        backward for that work item (the combined backward, or the
        weight-gradient half when the backward is split) releases it.
        """
        release_kind = (
            PassKind.BACKWARD_WEIGHT if self.splits_backward else PassKind.BACKWARD
        )
        peaks = []
        for order in self.device_orders:
            live = 0
            peak = 0
            for p in order:
                if p.kind is PassKind.FORWARD:
                    live += 1
                    peak = max(peak, live)
                elif p.kind is release_kind:
                    live -= 1
            peaks.append(peak)
        return peaks
