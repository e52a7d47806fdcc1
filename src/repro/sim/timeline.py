"""Execution timelines produced by the pipeline simulator.

A :class:`Timeline` is a list of :class:`TimelineSpan` records — one per
executed pass — from which the quantities the paper reports are derived:
per-device busy time, the iteration makespan, and the bubble fraction
(the fraction of device-time spent idle between the start and the end of the
iteration, as plotted in Figures 3 and 6b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..schedules.base import Pass

__all__ = ["TimelineSpan", "Timeline"]


@dataclass(frozen=True)
class TimelineSpan:
    """One executed pass: which device ran what, and when."""

    device: int
    work: Pass
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("span end precedes its start")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Chronological record of every pass executed in one iteration."""

    num_devices: int
    spans: List[TimelineSpan] = field(default_factory=list)

    def add(self, span: TimelineSpan) -> None:
        if not 0 <= span.device < self.num_devices:
            raise ValueError(f"device {span.device} out of range")
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spans_on_device(self, device: int) -> List[TimelineSpan]:
        return sorted(
            (s for s in self.spans if s.device == device), key=lambda s: s.start
        )

    @property
    def makespan(self) -> float:
        """End-to-end duration of the iteration."""
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def busy_time(self, device: Optional[int] = None) -> float:
        """Total compute time, for one device or summed over all of them."""
        spans: Iterable[TimelineSpan] = (
            self.spans if device is None else self.spans_on_device(device)
        )
        return sum(s.duration for s in spans)

    def bubble_fraction(self) -> float:
        """Fraction of total device-time spent idle.

        ``1 - sum(busy) / (p * makespan)`` — the quantity Table 2 and
        Figures 3 / 6b call the bubble fraction.
        """
        makespan = self.makespan
        if makespan <= 0.0:
            return 0.0
        total = self.num_devices * makespan
        return max(0.0, 1.0 - self.busy_time() / total)

    def device_utilizations(self) -> List[float]:
        makespan = self.makespan
        if makespan <= 0.0:
            return [0.0] * self.num_devices
        return [self.busy_time(d) / makespan for d in range(self.num_devices)]

    def finish_times(self) -> Dict[tuple, float]:
        """Finish time of every pass keyed by ``(kind, work_key)``."""
        return {(s.work.kind, s.work.work_key): s.end for s in self.spans}

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_ascii(self, width: int = 100, max_devices: int = 16) -> str:
        """Render a coarse ASCII Gantt chart (one row per device).

        Forward passes render as ``F``, combined backwards as ``B``, split
        backward halves as ``b``/``w``; idle time as ``.``.  Useful for
        eyeballing schedules the way Figures 4, 5 and 7 do.
        """
        if not self.spans:
            return "(empty timeline)"
        makespan = self.makespan
        origin = min(s.start for s in self.spans)
        rows = []
        symbol = {"F": "F", "B": "B", "Bi": "b", "Bw": "w"}
        for device in range(min(self.num_devices, max_devices)):
            row = ["."] * width
            for span in self.spans_on_device(device):
                lo = int((span.start - origin) / makespan * (width - 1))
                hi = max(lo, int((span.end - origin) / makespan * (width - 1)))
                for col in range(lo, hi + 1):
                    row[col] = symbol.get(span.work.kind.value, "?")
            rows.append(f"dev{device:>2} |" + "".join(row) + "|")
        return "\n".join(rows)
