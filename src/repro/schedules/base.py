"""Pipeline schedule abstraction.

A *schedule* is, for every pipeline device, the ordered list of passes the
device executes in one training iteration.  A :class:`Pass` is the unit of
work the paper calls a computational unit: a forward or backward of one
microbatch (classic schemes), of one sequence slice (SlimPipe, TeraPipe),
optionally restricted to the input-gradient or weight-gradient half of the
backward pass (zero-bubble schemes).

Dependencies between passes are derived structurally by
:meth:`PipelineSchedule.dependencies`:

* a forward needs the same slice's forward on the previous stage, and — for
  sliced schedules — the previous slice's forward on the *same* stage (its
  keys/values must be in the KV cache);
* a backward needs the same slice's forward on its own stage and the same
  slice's backward on the next stage, and — for sliced schedules — the
  *next* slice's backward on the same stage (gradients flow into earlier
  slices' keys/values through causal attention);
* a weight-gradient pass needs its matching input-gradient pass.

:meth:`PipelineSchedule.compiled` numbers the passes ``0..n-1`` and resolves
those dependencies to ids once, from ``(kind, microbatch, stage, slice)``
keys; validation and the discrete-event simulator in :mod:`repro.sim` read
that form, which is rebuilt whenever the pass lists change.
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

    @property
    def slice_or_zero(self) -> int:
        return self.slice_index or 0

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


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule's passes as integer ids, with dependencies resolved to ids.

    Ids run device by device in list order: device ``d`` executes ids
    ``range(device_ends[d - 1], device_ends[d])`` (from 0 for device 0).
    ``dependencies[i]`` lists the ids of pass ``i``'s prerequisites in
    :meth:`PipelineSchedule.dependencies` order; a prerequisite the schedule
    lacks gets the id :attr:`missing` (one past the last pass).  ``source``
    is the schedule state it was compiled from.
    """

    source: tuple
    passes: Tuple[Pass, ...]
    device_ends: Tuple[int, ...]
    dependencies: Tuple[Tuple[int, ...], ...]
    #: Pass id by kind, then by ``(microbatch, stage, slice)`` work key.
    ids: Dict[PassKind, Dict[Tuple[int, int, Optional[int]], int]]
    #: Device of each stage's first pass.
    stage_device: Dict[int, int]
    #: Why the stage → device map is inconsistent, or ``None``.
    stage_conflict: Optional[str]

    @property
    def missing(self) -> int:
        return len(self.passes)


def _compile(source: tuple) -> CompiledSchedule:
    """Number the passes and resolve dependencies by (kind, work key) lookups."""
    num_stages, splits_backward, orders = source
    passes = tuple(chain.from_iterable(orders))
    forward, combined = PassKind.FORWARD, PassKind.BACKWARD
    input_grad, weight_grad = PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT
    forward_ids, combined_ids, input_ids, weight_ids = {}, {}, {}, {}
    stage_device: Dict[int, int] = {}
    stage_conflict = None
    keys = []
    # Kinds are told apart by identity: PassKind hashes in Python code.
    for i, p in enumerate(passes):
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
        existing = stage_device.setdefault(p.stage, p.device)
        if existing != p.device and stage_conflict is None:
            stage_conflict = f"stage {p.stage} appears on devices {existing} and {p.device}"

    missing = len(passes)
    last_stage = num_stages - 1
    forward_id = forward_ids.get
    grad_id = (input_ids if splits_backward else combined_ids).get
    dependencies = []
    for p, key in zip(passes, keys):
        mb, stage, sl = key
        kind = p.kind
        if kind is forward:
            deps = (forward_id((mb, stage - 1, sl), missing),) if stage > 0 else ()
            if sl is not None and sl > 0:
                deps += (forward_id((mb, stage, sl - 1), missing),)
        elif kind is weight_grad:
            deps = (input_ids.get(key, missing),)
        else:
            deps = (forward_id(key, missing),)
            if stage < last_stage:
                deps += (grad_id((mb, stage + 1, sl), missing),)
            if sl is not None and sl < p.num_slices - 1:
                deps += (grad_id((mb, stage, sl + 1), missing),)
        dependencies.append(deps)
    return CompiledSchedule(
        source=source,
        passes=passes,
        device_ends=tuple(accumulate(map(len, orders))),
        dependencies=tuple(dependencies),
        ids={
            forward: forward_ids,
            combined: combined_ids,
            input_grad: input_ids,
            weight_grad: weight_ids,
        },
        stage_device=stage_device,
        stage_conflict=stage_conflict,
    )


@dataclass
class PipelineSchedule:
    """An ordered per-device list of passes plus the structural metadata."""

    name: str
    num_devices: int
    num_stages: int
    num_microbatches: int
    num_slices: int
    device_orders: List[List[Pass]]
    splits_backward: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)
    #: The last :meth:`compiled` form; reused while its source is current.
    _compiled: Optional[CompiledSchedule] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def stages_per_device(self) -> int:
        return self.num_stages // self.num_devices

    def all_passes(self) -> Iterator[Pass]:
        for order in self.device_orders:
            yield from order

    def passes_on_device(self, device: int) -> Sequence[Pass]:
        return self.device_orders[device]

    def device_of_stage(self, stage: int) -> int:
        """Device executing a given stage (derived from the passes)."""
        try:
            return self.stage_to_device()[stage]
        except KeyError:
            raise ScheduleValidationError(f"stage {stage} never appears in the schedule")

    def stage_to_device(self) -> Dict[int, int]:
        """Stage → device map of the current pass lists, checking consistency."""
        compiled = self.compiled()
        if compiled.stage_conflict is not None:
            raise ScheduleValidationError(compiled.stage_conflict)
        return compiled.stage_device

    def compiled(self) -> CompiledSchedule:
        """The integer-id form of the current pass lists (see :class:`CompiledSchedule`).

        Cached, and rebuilt whenever ``device_orders``, ``num_stages`` or
        ``splits_backward`` no longer match what it was compiled from, so a
        schedule mutated after it was built is never read stale.
        """
        source = (
            self.num_stages,
            self.splits_backward,
            tuple(map(tuple, self.device_orders)),
        )
        compiled = self._compiled
        if compiled is None or compiled.source != source:
            compiled = self._compiled = _compile(source)
        return compiled

    def total_passes(self) -> int:
        return sum(len(order) for order in self.device_orders)

    # ------------------------------------------------------------------
    # Dependencies
    # ------------------------------------------------------------------
    def backward_kinds(self) -> Tuple[PassKind, ...]:
        """Pass kinds that carry the activation gradient across stages."""
        return (PassKind.BACKWARD_INPUT,) if self.splits_backward else (PassKind.BACKWARD,)

    def dependencies(self, p: Pass) -> List[Pass]:
        """Structural prerequisites of pass ``p`` (see the module docstring).

        Each call checks the stage map against the current pass lists, so
        it costs O(passes); bulk readers use :meth:`compiled` instead.
        """
        deps: List[Pass] = []
        stage_device = self.stage_to_device()
        grad_kind = self.backward_kinds()[0]

        def make(kind: PassKind, stage: int, slice_index: Optional[int], microbatch: int) -> Pass:
            return Pass(
                kind=kind,
                microbatch=microbatch,
                stage=stage,
                device=stage_device[stage],
                slice_index=slice_index,
                num_slices=p.num_slices,
            )

        if p.kind is PassKind.FORWARD:
            if p.stage > 0:
                deps.append(make(PassKind.FORWARD, p.stage - 1, p.slice_index, p.microbatch))
            if p.slice_index is not None and p.slice_index > 0:
                deps.append(make(PassKind.FORWARD, p.stage, p.slice_index - 1, p.microbatch))
        elif p.kind in (PassKind.BACKWARD, PassKind.BACKWARD_INPUT):
            deps.append(make(PassKind.FORWARD, p.stage, p.slice_index, p.microbatch))
            if p.stage < self.num_stages - 1:
                deps.append(make(grad_kind, p.stage + 1, p.slice_index, p.microbatch))
            if p.slice_index is not None and p.slice_index < p.num_slices - 1:
                deps.append(make(grad_kind, p.stage, p.slice_index + 1, p.microbatch))
        elif p.kind is PassKind.BACKWARD_WEIGHT:
            deps.append(make(PassKind.BACKWARD_INPUT, p.stage, p.slice_index, p.microbatch))
        else:  # pragma: no cover - exhaustive enum
            raise ScheduleValidationError(f"unsupported pass kind {p.kind}")
        return deps

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`ScheduleValidationError`.

        * device lists agree with the declared shape (devices, stages),
        * every (microbatch, stage, slice) has exactly one forward and one
          complete backward (combined, or input+weight when split),
        * on every device a backward never precedes its own forward,
        * every dependency of every pass exists somewhere in the schedule.
        """
        if len(self.device_orders) != self.num_devices:
            raise ScheduleValidationError(
                f"expected {self.num_devices} device lists, got {len(self.device_orders)}"
            )
        num_stages, num_microbatches = self.num_stages, self.num_microbatches
        num_slices = self.num_slices
        for device, order in enumerate(self.device_orders):
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

        # Exactly-once bookkeeping -------------------------------------
        compiled = self.compiled()
        passes, ids = compiled.passes, compiled.ids
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
        forward_ids = ids[PassKind.FORWARD]
        expected_backward = [
            (kind, ids[kind])
            for kind in (
                (PassKind.BACKWARD_INPUT, PassKind.BACKWARD_WEIGHT)
                if self.splits_backward
                else (PassKind.BACKWARD,)
            )
        ]
        for mb in range(num_microbatches):
            for stage in range(num_stages):
                for sl in slices:
                    work = (mb, stage, sl)
                    if work not in forward_ids:
                        raise ScheduleValidationError(f"missing forward for {work}")
                    for kind, kind_ids in expected_backward:
                        if work not in kind_ids:
                            raise ScheduleValidationError(
                                f"missing {kind.value} for {work}"
                            )

        # Per-device forward-before-backward ----------------------------
        # Passes are unique here, so a backward's forward ran before it on
        # its device exactly when the forward's id lies in between.
        first = 0
        for device, end in enumerate(compiled.device_ends):
            for i in range(first, end):
                p = passes[i]
                if p.kind is not PassKind.FORWARD:
                    forward_id = forward_ids.get((p.microbatch, p.stage, p.slice_index), -1)
                    if not first <= forward_id < i:
                        raise ScheduleValidationError(
                            f"{p.describe()} scheduled before its forward on device {device}"
                        )
            first = end

        # Dependencies must exist ---------------------------------------
        self.stage_to_device()  # a stage split across devices is reported first
        missing = compiled.missing
        for p, deps in zip(passes, compiled.dependencies):
            if missing in deps:
                dep = self.dependencies(p)[deps.index(missing)]
                raise ScheduleValidationError(
                    f"{p.describe()} depends on missing pass {dep.describe()}"
                )

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
