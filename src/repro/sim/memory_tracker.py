"""Per-device activation memory tracking along a schedule.

The tracker replays each device's pass list in order, over the schedule's
compiled ids, and maintains the bytes of live activation state: a forward
pass *stores* bytes that stay resident until the pass that completes that
work item's backward *releases* them (found by id: a backward's first
dependency is its forward, a weight-gradient pass's is its input-gradient
pass), and any pass may additionally require *transient* working memory
while it runs (e.g. the recomputed activations of a fully-checkpointed layer
block, or the fp32 logits of the loss).  The resulting per-device peaks reproduce the
memory curves of Figures 1, 10 and 14 when fed the system accountants from
:mod:`repro.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol

from ..model.costs import PassKind
from ..schedules.base import Pass, PipelineSchedule

__all__ = ["ActivationAccountant", "SimpleAccountant", "MemoryTracker", "DeviceMemoryProfile"]


class ActivationAccountant(Protocol):
    """Bytes stored / required by each pass, plus the per-device static base."""

    def stored_bytes(self, work: Pass) -> float:
        """Bytes a forward pass leaves resident until its release pass."""
        ...

    def transient_bytes(self, work: Pass) -> float:
        """Extra bytes live only while ``work`` executes."""
        ...

    def base_bytes(self, device: int) -> float:
        """Static per-device memory (model states, buffers)."""
        ...


class SimpleAccountant:
    """Uniform accountant used by structural tests: every forward stores 1 byte."""

    def __init__(self, stored: float = 1.0, transient: float = 0.0, base: float = 0.0):
        self._stored = stored
        self._transient = transient
        self._base = base

    def stored_bytes(self, work: Pass) -> float:
        return self._stored

    def transient_bytes(self, work: Pass) -> float:
        return self._transient

    def base_bytes(self, device: int) -> float:
        return self._base


@dataclass(frozen=True)
class DeviceMemoryProfile:
    """Memory summary of one device over an iteration."""

    device: int
    base_bytes: float
    peak_bytes: float
    peak_activation_bytes: float

    @property
    def peak_gib(self) -> float:
        return self.peak_bytes / (1024**3)


class MemoryTracker:
    """Replay a schedule and report per-device peak memory."""

    def __init__(self, schedule: PipelineSchedule, accountant: ActivationAccountant):
        self.schedule = schedule
        self.accountant = accountant

    def profile(self) -> List[DeviceMemoryProfile]:
        compiled = self.schedule.compiled()
        passes, dependencies = compiled.passes, compiled.dependencies
        split = self.schedule.splits_backward
        release_kind = PassKind.BACKWARD_WEIGHT if split else PassKind.BACKWARD
        accountant = self.accountant
        stored = [0.0] * len(passes)  # bytes stored by each forward, by id
        profiles: List[DeviceMemoryProfile] = []
        first = 0
        for device, end in enumerate(compiled.device_ends):
            base = accountant.base_bytes(device)
            live = 0.0
            peak = 0.0
            for i in range(first, end):
                work = passes[i]
                transient = accountant.transient_bytes(work)
                peak = max(peak, live + transient)
                if work.kind is PassKind.FORWARD:
                    bytes_stored = stored[i] = accountant.stored_bytes(work)
                    live += bytes_stored
                    peak = max(peak, live + transient)
                elif work.kind is release_kind:
                    forward = dependencies[i][0]
                    if split:
                        forward = dependencies[forward][0]
                    live -= stored[forward]
            first = end
            profiles.append(
                DeviceMemoryProfile(
                    device=device,
                    base_bytes=base,
                    peak_bytes=base + peak,
                    peak_activation_bytes=peak,
                )
            )
        return profiles

    def peak_bytes(self) -> List[float]:
        """Per-device peak total memory in bytes."""
        return [p.peak_bytes for p in self.profile()]

    def peak_activation_bytes(self) -> List[float]:
        """Per-device peak activation memory in bytes (excluding the base)."""
        return [p.peak_activation_bytes for p in self.profile()]

    def max_peak_bytes(self) -> float:
        """Worst peak across devices — the number that decides OOM."""
        peaks = self.peak_bytes()
        return max(peaks) if peaks else 0.0
