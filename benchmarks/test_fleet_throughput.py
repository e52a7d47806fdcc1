"""Fleet-simulator throughput and headline cluster metrics.

The fleet engine multiplexes every replica's continuous-batching loop over
one event heap, so its wall-clock cost is (total iterations) x (running
batch size) plus heap overhead.  These benchmarks time three representative
scenarios end to end and sanity-check the simulated cluster behaviour:
steady chat sustains its goodput, token-aware routing beats round-robin's
tail on heterogeneous traffic, and failover loses no requests.

Besides the pytest-benchmark timings, the module writes a machine-readable
``BENCH_fleet.new.json`` (override the path with ``$BENCH_FLEET_JSON``; the
committed ``BENCH_fleet.json`` is the baseline CI compares it against) so CI
can archive the perf trajectory per commit: simulator wall seconds,
simulated iterations per wall second and the headline serving metrics of
each scenario.
"""

import time

import pytest

from _bench_artifact import BenchArtifact
from _speedup import interleaved_speedup
from repro.fleet import get_fleet_scenario, run_fleet_scenario

_ARTIFACT = BenchArtifact("fleet")


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write whatever the module's benchmarks recorded as one JSON artifact."""
    yield
    _ARTIFACT.write()


def _record(name, result, wall_seconds, **extra):
    _ARTIFACT.record(name, {
        "wall_seconds": wall_seconds,
        "iterations": result.iterations,
        "iterations_per_wall_second": result.iterations / max(wall_seconds, 1e-9),
        "num_requests": result.metrics.num_requests,
        "makespan": result.metrics.duration,
        "ttft_p99": result.metrics.ttft_p99,
        "goodput_fraction": result.metrics.goodput_fraction,
        "gpu_hours": result.fleet.gpu_hours,
        "replicas_peak": result.fleet.replicas_peak,
        "rerouted_requests": result.fleet.rerouted_requests,
        **extra,
    })


def test_fleet_steady_chat_throughput(once):
    scenario = get_fleet_scenario("steady-chat")
    start = time.perf_counter()
    result = once(run_fleet_scenario, scenario, seed=0)
    wall = time.perf_counter() - start
    _record("steady-chat", result, wall)
    print()
    print(result.to_text(title="steady-chat (benchmark)"))

    assert result.metrics.num_requests == len(scenario.make_trace(0))
    assert result.token_accounting_balanced
    assert result.metrics.goodput_fraction > 0.95
    assert result.iterations > 0


def test_fleet_fast_forward_speedup(once):
    """Decode fast-forwarding at fleet scale: >= 3x the naive event loop.

    steady-chat is the acceptance scenario: hundreds of overlapping decode
    phases across replicas, which is exactly the regime the pre-planned
    stretches coalesce.  The gate reads the median ratio of interleaved
    fast/naive pairs (``_speedup``); the outcomes must match exactly.
    """
    scenario = get_fleet_scenario("steady-chat")
    timing = once(
        interleaved_speedup,
        lambda: run_fleet_scenario(scenario, seed=0),
        lambda: run_fleet_scenario(scenario, seed=0, fast_forward=False),
    )
    fast, naive, speedup = timing.fast, timing.naive, timing.ratio
    _record(
        "steady-chat.fast-forward",
        fast,
        timing.fast_wall,
        naive_wall_seconds=timing.naive_wall,
        fast_forward_speedup=speedup,
        fast_forward_speedups=timing.ratios,
    )
    print()
    print(f"naive        wall: {timing.naive_wall:8.3f} s (median)")
    print(f"fast-forward wall: {timing.fast_wall:8.3f} s  ({speedup:.1f}x median)")

    assert fast.iterations == naive.iterations
    assert fast.metrics.ttft_p99 == naive.metrics.ttft_p99
    assert fast.fleet.gpu_hours == naive.fleet.gpu_hours
    assert [r.finish_time for r in fast.records] == [
        r.finish_time for r in naive.records
    ]
    assert speedup >= 3.0


def test_fleet_token_aware_routing_tail_latency(once):
    scenario = get_fleet_scenario("hetero-mixed")

    def both():
        round_robin = run_fleet_scenario(scenario, router="round-robin", seed=0)
        start = time.perf_counter()
        least_tokens = run_fleet_scenario(scenario, router="least-tokens", seed=0)
        wall = time.perf_counter() - start
        return round_robin, least_tokens, wall

    round_robin, least_tokens, wall = once(both)
    _record("hetero-mixed.least-tokens", least_tokens, wall)
    print()
    print(f"round-robin  p99 TTFT: {round_robin.metrics.ttft_p99:8.2f} s")
    print(f"least-tokens p99 TTFT: {least_tokens.metrics.ttft_p99:8.2f} s")
    # Round-robin balances request *counts*; with a 32K-prompt heavy tail the
    # token imbalance lands whole bursts behind one long prefill.
    assert least_tokens.metrics.ttft_p99 < round_robin.metrics.ttft_p99


def test_fleet_failover_completes_every_request(once):
    scenario = get_fleet_scenario("unreliable")
    start = time.perf_counter()
    result = once(run_fleet_scenario, scenario, seed=0)
    wall = time.perf_counter() - start
    _record("unreliable", result, wall)

    assert result.fleet.crashes == 2
    assert result.fleet.slow_events == 1
    assert result.metrics.num_requests == len(scenario.make_trace(0))
    assert all(record.finished for record in result.records)
    assert result.token_accounting_balanced
