"""Perfetto/Chrome trace export of a recorded serving or fleet run.

Turns an :class:`~repro.obs.events.EventRecorder` stream into a trace the
``chrome://tracing`` and https://ui.perfetto.dev viewers load directly.
Layout:

* **pid 0 — engine**: one track per pool/replica.  Every recorded
  ``ITERATION`` renders as one ``iteration`` box and every coalesced decode
  ``STRETCH`` as one ``decode xN`` box.  Replica lifecycle moments
  (provision, activate, crash, recover, slow windows, retirement) are
  instant markers on their replica's track.
* **pid 1 — requests**: one async lifeline per request id, opened at
  arrival and closed at finish (or at hand-off, then reopened on the
  decode pool), with admission, first-token, preemption and prefix-hit
  markers pinned onto it.
* **pid 2 — counters**: queue depth, batch tokens and KV utilization per
  track (sampled at every naive iteration and stretch boundary), a
  cumulative prefix hit rate when prefix caching produced hits, and the
  autoscaler's queue/arrival-rate/replica-target signals at every tick.
* **pid 3 — cluster**: instant markers for cluster-level moments (scale
  decisions, requests held with no replica accepting work).
* **pid 4 — diagnosis** (only when ``anomalies`` are passed in): one
  instant marker per detected anomaly, carrying the detector's verdict in
  its args.  Passing ``attributions`` additionally attaches the
  per-request span breakdown to the request lifeline's closing event.

The export is a pure function of the event stream, so two identical runs
serialise to byte-identical JSON (pinned by ``tests/test_obs_trace.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from . import chrome
from .events import (
    ACTIVATE,
    ADMIT,
    ARRIVE,
    CRASH,
    FINISH,
    FIRST_TOKEN,
    HANDOFF,
    HELD,
    ITER_DECODES,
    ITER_DURATION,
    ITER_KV_UTILIZATION,
    ITER_PREFILL_TOKENS,
    ITER_QUEUE_DEPTH,
    ITERATION,
    PREEMPT,
    PREFIX_HIT,
    PROVISION,
    RECOVER,
    RETIRE,
    ROUTE,
    SCALE,
    SCALE_DOWN,
    SCALE_UP,
    SLOW,
    SLOW_END,
    STRETCH,
    EventRecorder,
)

__all__ = ["to_perfetto", "write_perfetto"]

_ENGINE_PID = 0
_REQUEST_PID = 1
_COUNTER_PID = 2
_CLUSTER_PID = 3
_DIAGNOSIS_PID = 4

#: Replica/pool lifecycle kinds rendered as instant markers on their track.
_TRACK_MARKERS = {PROVISION, ACTIVATE, RETIRE, CRASH, RECOVER, SLOW, SLOW_END}
#: Cluster-level kinds rendered as instant markers on the cluster process.
_CLUSTER_MARKERS = {SCALE_UP, SCALE_DOWN, HELD}
#: Request-lifeline kinds rendered as async-instant markers.
_LIFELINE_MARKERS = {ADMIT, FIRST_TOKEN, PREEMPT, PREFIX_HIT, ROUTE}


def _track_label(recorder: EventRecorder, track: int) -> str:
    return recorder.track_names.get(track, f"track {track}")


def to_perfetto(
    recorder: EventRecorder,
    time_unit_us: float = 1e6,
    anomalies: Optional[List[object]] = None,
    attributions: Optional[Dict[int, object]] = None,
) -> Dict:
    """Build the Chrome trace-event JSON container for one recorded run.

    The engine boxes come from the recorded ``ITERATION``/``STRETCH`` events:
    one box per naive iteration, one ``decode xN`` box per stretch.

    ``anomalies`` (from :func:`repro.obs.anomaly.detect_anomalies`) adds
    the diagnosis marker track; ``attributions`` (from
    :func:`repro.obs.critical_path.build_attributions`) attaches each
    finished request's span breakdown to its lifeline-closing event.  Both
    default to off, which keeps the base export byte-identical.
    """
    if time_unit_us <= 0:
        raise ValueError("time_unit_us must be positive")
    events: List[Dict] = []

    tracks = sorted(
        {e.track for e in recorder.events if e.track >= 0} | set(recorder.track_names)
    )
    events.append(chrome.process_name_event(_ENGINE_PID, "engine"))
    events.append(chrome.process_name_event(_REQUEST_PID, "requests"))
    events.append(chrome.process_name_event(_COUNTER_PID, "counters"))
    events.append(chrome.process_name_event(_CLUSTER_PID, "cluster"))
    if anomalies is not None:
        events.append(chrome.process_name_event(_DIAGNOSIS_PID, "diagnosis"))
        events.append(chrome.thread_name_event(_DIAGNOSIS_PID, 0, "anomalies"))
        for anomaly in anomalies:
            events.append(
                chrome.instant_event(
                    f"{anomaly.kind}:{anomaly.metric}",
                    _DIAGNOSIS_PID,
                    0,
                    anomaly.time,
                    time_unit_us,
                    args=anomaly.to_json(),
                )
            )
    for track in tracks:
        events.append(
            chrome.thread_name_event(_ENGINE_PID, track, _track_label(recorder, track))
        )

    open_lifelines: Dict[int, bool] = {}
    # Cumulative prefix accounting per track feeds the hit-rate counter.
    prefix_hit_tokens: Dict[int, int] = {}
    prefilled_tokens: Dict[int, int] = {}

    for event in recorder.events:
        kind = event.kind
        time = event.time
        track = event.track
        rid = event.request_id
        if kind == ITERATION:
            data = event.data
            label = _track_label(recorder, track)
            events.append(
                chrome.complete_event(
                    "iteration",
                    _ENGINE_PID,
                    track,
                    time - data[ITER_DURATION],
                    data[ITER_DURATION],
                    time_unit_us,
                    cat="iteration",
                )
            )
            events.append(
                chrome.counter_event(
                    f"queue depth [{label}]", _COUNTER_PID, time,
                    data[ITER_QUEUE_DEPTH], time_unit_us,
                )
            )
            events.append(
                chrome.counter_event(
                    f"batch tokens [{label}]", _COUNTER_PID, time,
                    data[ITER_PREFILL_TOKENS] + data[ITER_DECODES], time_unit_us,
                )
            )
            events.append(
                chrome.counter_event(
                    f"kv utilization [{label}]", _COUNTER_PID, time,
                    data[ITER_KV_UTILIZATION], time_unit_us,
                )
            )
            if data[ITER_PREFILL_TOKENS] and prefix_hit_tokens.get(track):
                prefilled_tokens[track] = (
                    prefilled_tokens.get(track, 0) + data[ITER_PREFILL_TOKENS]
                )
                hits = prefix_hit_tokens[track]
                events.append(
                    chrome.counter_event(
                        f"prefix hit rate [{label}]", _COUNTER_PID, time,
                        hits / (hits + prefilled_tokens[track]), time_unit_us,
                    )
                )
            elif data[ITER_PREFILL_TOKENS]:
                prefilled_tokens[track] = (
                    prefilled_tokens.get(track, 0) + data[ITER_PREFILL_TOKENS]
                )
        elif kind == STRETCH:
            steps, batch, start, kv_utilization = event.data
            label = _track_label(recorder, track)
            events.append(
                chrome.complete_event(
                    f"decode x{steps}",
                    _ENGINE_PID,
                    track,
                    start,
                    time - start,
                    time_unit_us,
                    cat="stretch",
                    args={"steps": steps, "batch": batch},
                )
            )
            events.append(
                chrome.counter_event(
                    f"batch tokens [{label}]", _COUNTER_PID, time, batch, time_unit_us
                )
            )
            events.append(
                chrome.counter_event(
                    f"kv utilization [{label}]", _COUNTER_PID, time,
                    kv_utilization, time_unit_us,
                )
            )
        elif kind == ARRIVE:
            if rid is not None and not open_lifelines.get(rid):
                open_lifelines[rid] = True
                events.append(
                    chrome.async_begin_event(
                        f"request {rid}", "request", _REQUEST_PID, rid, time, time_unit_us
                    )
                )
        elif kind in (FINISH, HANDOFF):
            if rid is not None and open_lifelines.get(rid):
                open_lifelines[rid] = False
                args = None
                if kind == FINISH and attributions is not None:
                    attribution = attributions.get(rid)
                    if attribution is not None:
                        args = {
                            "ttft": attribution.ttft,
                            "e2e": attribution.e2e_latency,
                            "preemptions": attribution.preemptions,
                            "crash_reroutes": attribution.crash_reroutes,
                            "prefix_cached_tokens": attribution.prefix_cached_tokens,
                            "spans": attribution.breakdown(),
                        }
                events.append(
                    chrome.async_end_event(
                        f"request {rid}", "request", _REQUEST_PID, rid, time,
                        time_unit_us, args=args,
                    )
                )
        elif kind in _LIFELINE_MARKERS:
            if rid is not None:
                if kind == PREFIX_HIT:
                    prefix_hit_tokens[track] = (
                        prefix_hit_tokens.get(track, 0) + event.data[0]
                    )
                events.append(
                    chrome.async_instant_event(
                        kind, "request", _REQUEST_PID, rid, time, time_unit_us
                    )
                )
        elif kind in _TRACK_MARKERS:
            events.append(
                chrome.instant_event(kind, _ENGINE_PID, max(track, 0), time, time_unit_us)
            )
        elif kind == SCALE:
            current, target, queue_depth, rate = event.data
            events.append(
                chrome.counter_event(
                    "fleet queue depth", _COUNTER_PID, time, queue_depth, time_unit_us
                )
            )
            events.append(
                chrome.counter_event(
                    "arrival rate (ewma)", _COUNTER_PID, time, rate, time_unit_us
                )
            )
            events.append(
                chrome.counter_event(
                    "replica target", _COUNTER_PID, time, target, time_unit_us
                )
            )
        elif kind in _CLUSTER_MARKERS:
            events.append(
                chrome.instant_event(kind, _CLUSTER_PID, 0, time, time_unit_us)
            )

    return chrome.trace_container(events)


def write_perfetto(
    recorder: EventRecorder,
    path: str,
    time_unit_us: float = 1e6,
    anomalies: Optional[List[object]] = None,
    attributions: Optional[Dict[int, object]] = None,
) -> str:
    """Serialise :func:`to_perfetto` to ``path`` and return the path."""
    return chrome.write_trace(
        to_perfetto(recorder, time_unit_us, anomalies=anomalies, attributions=attributions),
        path,
    )
