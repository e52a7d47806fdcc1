"""Pin the serving engines' recorder event streams, event for event.

Every event a serving run records — kind, timestamp, track, request and
payload, in emission order — is hashed.  Fast-vs-naive equality cannot catch a
change that moves both steppers the same way; these digests can.  The runs
cover the colocated pool (``chat``), both deployments under bursts of long
prompts (``bursty-long``), prefix caching (``shared-system-prompt``) and
token-bucket idle jumps (``noisy-neighbour``).
"""

import pytest

from repro.obs.events import EventRecorder
from repro.serving.scenarios import SCENARIO_REGISTRY, run_scenario

from test_fleet_event_stream import event_stream_digest

#: (event count, event-stream sha256 prefix) at seed 0.
PINNED = {
    ("bursty-long", "colocated"): (10918, "d3f349dfec748d4e"),
    ("bursty-long", "disaggregated"): (2021, "355f388a3feb1921"),
    ("chat", "colocated"): (2035, "4268a9660118eba0"),
    ("noisy-neighbour", "colocated"): (3968, "9b65d4d28ebdda8e"),
    ("shared-system-prompt", "colocated"): (1174, "6a5c9b0bd8c94592"),
}


@pytest.mark.parametrize("scenario_name, mode", sorted(PINNED))
def test_serving_event_stream_pinned(scenario_name, mode):
    recorder = EventRecorder()
    run_scenario(SCENARIO_REGISTRY[scenario_name], mode=mode, seed=0, observe=recorder)
    observed = (len(recorder.events), event_stream_digest(recorder))
    assert observed == PINNED[(scenario_name, mode)]
