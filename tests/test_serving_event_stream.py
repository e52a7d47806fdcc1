"""Pin the serving engines' recorder event streams and timelines, event for event.

Every event a serving run records — kind, timestamp, track, request and
payload, in emission order — is hashed, and so is every timeline span's
``(device, start, end, microbatch)``.  Fast-vs-naive equality cannot catch a
change that moves both steppers the same way; these digests can.  The runs
cover the colocated pool (``chat``), both deployments under bursts of long
prompts (``bursty-long``), prefix caching (``shared-system-prompt``) and
token-bucket idle jumps (``noisy-neighbour``).
"""

import hashlib

import pytest

from repro.obs.events import EventRecorder
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario

from test_fleet_event_stream import event_stream_digest

#: (event count, event-stream sha256 prefix, span sha256 prefix) at seed 0.
PINNED = {
    ("bursty-long", "colocated"): (10918, "d3f349dfec748d4e", "1b8c8ab408909821"),
    ("bursty-long", "disaggregated"): (2021, "355f388a3feb1921", "0f546e35e56511fa"),
    ("chat", "colocated"): (2035, "4268a9660118eba0", "88cfe8a3e903a175"),
    ("noisy-neighbour", "colocated"): (3968, "9b65d4d28ebdda8e", "a32ec2768b1f3af2"),
    ("shared-system-prompt", "colocated"): (1174, "6a5c9b0bd8c94592", "90b97483403b461c"),
}


def span_digest(timeline):
    digest = hashlib.sha256()
    for span in timeline.spans:
        line = repr((span.device, span.start, span.end, span.work.microbatch))
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("scenario_name, mode", sorted(PINNED))
def test_serving_event_stream_pinned(scenario_name, mode):
    recorder = EventRecorder()
    result = run_scenario(
        SCENARIO_REGISTRY[scenario_name], mode=mode, seed=0, observe=recorder
    )
    observed = (
        len(recorder.events),
        event_stream_digest(recorder),
        span_digest(result.timeline),
    )
    assert observed == PINNED[(scenario_name, mode)]
