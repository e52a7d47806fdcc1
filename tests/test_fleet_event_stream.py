"""Pin the fleet engine's recorder event stream, event for event.

Every event a fleet run records — kind, timestamp, track, request and
payload, in emission order — is hashed and compared with a digest taken
before the cluster loop learned to fold decode stretches out of its event
queue.  A STRETCH event's payload (completed steps, batch size, start time,
KV utilization) must not move when stretch steps stop being queue events,
and neither may any other event's time or position in the stream.
"""

import hashlib

import pytest

from repro.fleet.scenarios import FLEET_SCENARIO_REGISTRY, run_fleet_scenario
from repro.obs.events import EventRecorder

#: (event count, sha256 prefix over ``repr((kind, time, track, request_id,
#: data))`` per event) at seed 0.
PINNED = {
    "unreliable": (1773, "2d6b9befad80e5c2"),
    "flash-crowd": (1746, "c9eb0437d20a8a24"),
    "shared-system-prompt": (1528, "d2dd7bc6d3ce2000"),
}


def event_stream_digest(recorder):
    digest = hashlib.sha256()
    for event in recorder.events:
        line = repr((event.kind, event.time, event.track, event.request_id, event.data))
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("scenario_name", sorted(PINNED))
def test_fleet_event_stream_pinned(scenario_name):
    recorder = EventRecorder()
    run_fleet_scenario(FLEET_SCENARIO_REGISTRY[scenario_name], seed=0, observe=recorder)
    assert (len(recorder.events), event_stream_digest(recorder)) == PINNED[scenario_name]
