"""Structured lifecycle event recording for the serving and fleet engines.

The recorder is the spine of the observability layer: engines that are
handed one (``ServingConfig.observe`` / ``FleetConfig.observe``) append a
typed :class:`Event` at every lifecycle point — request arrival, admission,
prefill chunks, first token, preemption, finish, hand-off, prefix hits,
per-iteration samples, coalesced decode stretches, routing decisions,
scaling actions, crashes and slow windows.  Exporters turn the stream into
Perfetto traces (:mod:`repro.obs.trace`), windowed time series
(:mod:`repro.obs.timeseries`) and SLO burn reports (:mod:`repro.obs.slo`).

Design constraints, in order:

1. **Zero cost when off.**  Every emit site in an engine is guarded by
   ``if obs is not None``; with no recorder configured the hot path runs
   the exact same bytecode as before this module existed, and every
   simulated number is byte-identical (pinned by
   ``tests/test_obs_recorder.py``).
2. **Cheap when on.**  An :class:`Event` is a ``NamedTuple`` — one tuple
   allocation and one list append per emit, no dict, no method dispatch
   beyond ``emit`` itself.  Per-iteration samples carry their payload as a
   flat tuple (see the ``ITER_*`` index constants) instead of a dict; the
   benchmark suite gates recorder overhead at <10% wall-clock on the
   ``steady-chat`` fleet scenario.
3. **Deterministic.**  Events record only simulated quantities, never
   wall-clock or randomness, so two identical runs produce identical
   streams (and identical exported traces).  The optional
   :class:`~repro.obs.profile.PhaseProfiler` is the one exception — it
   meters host wall-clock per phase — and therefore lives beside the event
   stream, never inside it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, NamedTuple, Optional

from .profile import PhaseProfiler

__all__ = [
    "Event",
    "EventRecorder",
    "ARRIVE",
    "ADMIT",
    "PREFILL",
    "FIRST_TOKEN",
    "FINISH",
    "HANDOFF",
    "PREEMPT",
    "PREFIX_HIT",
    "ITERATION",
    "STRETCH",
    "ROUTE",
    "HELD",
    "PROVISION",
    "ACTIVATE",
    "RETIRE",
    "SCALE",
    "SCALE_UP",
    "SCALE_DOWN",
    "CRASH",
    "RECOVER",
    "SLOW",
    "SLOW_END",
    "ITER_DURATION",
    "ITER_PREFILL_TOKENS",
    "ITER_DECODES",
    "ITER_QUEUE_DEPTH",
    "ITER_RUNNING",
    "ITER_KV_UTILIZATION",
    "CLUSTER_TRACK",
]

# ---------------------------------------------------------------------------
# Event kinds.  Request lifecycle:
ARRIVE = "arrive"            # request reached a pool / the cluster router
ADMIT = "admit"              # batcher activated the request (data: (phase name, prefilled, prefill_target))
PREFILL = "prefill"          # one prefill chunk executed (data: (chunk, offset, prefill_target))
FIRST_TOKEN = "first-token"  # prefill completed, first token sampled (data: (ttft,))
FINISH = "finish"            # final token delivered (data: (ttft, tpot, output_tokens))
HANDOFF = "handoff"          # prefill pool released the context for transfer
PREEMPT = "preempt"          # victim evicted, re-queued for full re-prefill
                             # (data: (prefilled_lost, decoded, new_prefill_target))
PREFIX_HIT = "prefix-hit"    # admission served tokens from the prefix cache (data: (tokens,))
# Engine progress:
ITERATION = "iteration"      # one executed iteration (data: ITER_* tuple)
STRETCH = "stretch"          # one coalesced decode stretch (data: (steps, batch, start, kv_util))
# Fleet lifecycle:
ROUTE = "route"              # router picked a replica (data: (queue_depth, prefix_match))
HELD = "held"                # no replica accepts work; request parked
PROVISION = "provision"      # replica provisioning started (data: (delay,))
ACTIVATE = "activate"        # replica became active
RETIRE = "retire"            # replica drained and retired
SCALE = "scale"              # autoscaler tick (data: (current, target, queue, rate))
SCALE_UP = "scale-up"        # decision to add replicas (data: (count,))
SCALE_DOWN = "scale-down"    # decision to drain replicas (data: (count,))
CRASH = "crash"              # replica crashed (data: (lost_requests,))
RECOVER = "recover"          # crashed replica restarted with an empty pool
SLOW = "slow"                # slow window opened (data: (slowdown, duration))
SLOW_END = "slow-end"        # slow window closed

#: Index layout of the flat ``ITERATION`` data tuple (kept positional so the
#: per-iteration emit allocates one small tuple, not a dict).
ITER_DURATION = 0
ITER_PREFILL_TOKENS = 1
ITER_DECODES = 2
ITER_QUEUE_DEPTH = 3
ITER_RUNNING = 4
ITER_KV_UTILIZATION = 5

#: Track id for cluster-level events that belong to no single replica/pool.
CLUSTER_TRACK = -1


class Event(NamedTuple):
    """One recorded lifecycle event.

    ``track`` identifies the pool/replica the event happened on (the serving
    engines use the pool device index, the fleet engine the replica id,
    :data:`CLUSTER_TRACK` marks cluster-level events); ``request_id`` is set
    for request-lifecycle kinds and ``None`` for engine/fleet progress;
    ``data`` is a kind-specific payload (a flat tuple, or ``None``).
    """

    time: float
    kind: str
    track: int
    request_id: Optional[int]
    data: Optional[tuple]


class EventRecorder:
    """Append-only event log threaded through the engines via config.

    One recorder observes one run (or one coordinated pair of pools, as in
    the disaggregated engine).  Create it, pass it as
    ``ServingConfig.observe`` / ``FleetConfig.observe`` (or the ``observe=``
    parameter of ``run_scenario`` / ``run_fleet_scenario``), run, then hand
    it to the exporters.  ``profile=True`` additionally attaches a
    :class:`~repro.obs.profile.PhaseProfiler` metering host wall-clock per
    engine phase.
    """

    __slots__ = ("events", "track_names", "profiler")

    def __init__(self, profile: bool = False):
        self.events: List[Event] = []
        self.track_names: Dict[int, str] = {}
        self.profiler: Optional[PhaseProfiler] = PhaseProfiler() if profile else None

    # ------------------------------------------------------------------
    # Recording (the engines' side)
    # ------------------------------------------------------------------
    def emit(
        self,
        time: float,
        kind: str,
        track: int = CLUSTER_TRACK,
        request_id: Optional[int] = None,
        data: Optional[tuple] = None,
    ) -> None:
        """Append one event.  Hot: one tuple allocation, one list append."""
        self.events.append(Event(time, kind, track, request_id, data))

    def register_track(self, track: int, name: str) -> None:
        """Give a pool/replica track a human-readable label for exporters."""
        self.track_names[track] = name

    # ------------------------------------------------------------------
    # Reading (the exporters' side)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, *kinds: str) -> List[Event]:
        """Events of the given kind(s), in emission order."""
        wanted = frozenset(kinds)
        return [event for event in self.events if event.kind in wanted]

    def counts(self) -> Dict[str, int]:
        """Event count per kind (insertion-ordered by first occurrence)."""
        return dict(Counter(event.kind for event in self.events))

    def requests(self) -> List[int]:
        """Distinct request ids observed, in first-seen order."""
        seen: Dict[int, None] = {}
        for event in self.events:
            if event.request_id is not None and event.request_id not in seen:
                seen[event.request_id] = None
        return list(seen)

    @classmethod
    def from_jsonl(cls, path: str) -> "EventRecorder":
        """Reload a stream written by :meth:`to_jsonl` (offline analysis).

        Track labels are not serialised, so exporters fall back to their
        generic ``track N`` labels on a reloaded stream.
        """
        import json

        recorder = cls()
        append = recorder.events.append
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                data = raw["data"]
                append(
                    Event(
                        raw["time"],
                        raw["kind"],
                        raw["track"],
                        raw["request_id"],
                        tuple(data) if data is not None else None,
                    )
                )
        return recorder

    def to_jsonl(self, path: str) -> str:
        """Write the raw stream as JSON lines (one event object per line)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(
                    json.dumps(
                        {
                            "time": event.time,
                            "kind": event.kind,
                            "track": event.track,
                            "request_id": event.request_id,
                            "data": list(event.data) if event.data is not None else None,
                        }
                    )
                )
                handle.write("\n")
        return path

