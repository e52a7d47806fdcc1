"""Serving-simulator throughput: iterations simulated per wall-clock second.

The serving engine is a pure-Python discrete-event loop, so its cost is
iterations x running-batch size — minus whatever the decode fast-forward
path coalesces away.  These benchmarks time representative scenarios end to
end, sanity-check the simulated metrics (every request finishes, token
accounting balances, the colocated deployment sustains the offered load) and
pin the perf win itself: the fast-forward stepper must beat the naive
reference oracle by a healthy multiple on decode-heavy traffic while
producing identical results.

Besides the pytest-benchmark timings, the module writes a machine-readable
``BENCH_serving.new.json`` (override the path with ``$BENCH_SERVING_JSON``;
the committed ``BENCH_serving.json`` is the baseline, mirroring the fleet
benchmarks' ``BENCH_fleet.json``) so CI can archive the
perf trajectory per commit: simulator wall seconds, simulated iterations per
wall second, the fast-forward speedup and the headline serving metrics.
"""

import gc
import time

import pytest

from _bench_artifact import BenchArtifact
from _speedup import interleaved_speedup
from repro.fleet import get_fleet_scenario, run_fleet_scenario
from repro.obs import EventRecorder, build_attributions, verify_conservation
from repro.serving import get_scenario, run_scenario

_ARTIFACT = BenchArtifact("serving")


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    """Write whatever the module's benchmarks recorded as one JSON artifact."""
    yield
    _ARTIFACT.write()


def _record(name, result, wall_seconds, **extra):
    metrics = result.metrics
    _ARTIFACT.record(name, {
        "wall_seconds": wall_seconds,
        "iterations": result.iterations,
        "iterations_per_wall_second": result.iterations / max(wall_seconds, 1e-9),
        "num_requests": metrics.num_requests,
        "makespan": metrics.duration,
        "ttft_p99": metrics.ttft_p99,
        "tpot_p50": metrics.tpot_p50,
        "goodput_fraction": metrics.goodput_fraction,
        "preemptions": result.preemptions,
        **extra,
    })


def test_serving_chat_throughput(once):
    scenario = get_scenario("chat")
    start = time.perf_counter()
    result = once(run_scenario, scenario, "colocated", seed=0)
    wall = time.perf_counter() - start
    _record("chat.colocated", result, wall)
    print()
    print(result.metrics.to_text(title="chat | colocated (benchmark)"))

    metrics = result.metrics
    assert metrics.num_requests == len(scenario.make_trace(0))
    assert result.token_accounting_balanced
    # The deployment keeps up with the offered load: every request meets the
    # chat SLO and the engine sustains hundreds of output tokens per second.
    assert metrics.goodput_fraction > 0.95
    assert metrics.output_tokens_per_second > 100
    assert result.iterations > 0


def test_serving_fast_forward_speedup(once):
    """Decode fast-forwarding: same numbers, a multiple of the speed.

    Runs the decode-heavy ``chat`` scenario in interleaved fast/naive pairs
    (``_speedup``: fast first, median ratio) and asserts identical simulated
    outcomes alongside the wall-clock win.
    """
    scenario = get_scenario("chat")
    timing = once(
        interleaved_speedup,
        lambda: run_scenario(scenario, "colocated", seed=0),
        lambda: run_scenario(scenario, "colocated", seed=0, fast_forward=False),
    )
    fast, naive, speedup = timing.fast, timing.naive, timing.ratio
    _record(
        "chat.colocated.fast-forward",
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
    assert fast.metrics.tpot_p50 == naive.metrics.tpot_p50
    assert [r.finish_time for r in fast.records] == [
        r.finish_time for r in naive.records
    ]
    # Sanity floor only: the single-replica win shrinks when earlier tests
    # have pre-warmed the FLOPs caches the naive path leans on (cold-process
    # chat is ~3x); the hard >= 3x gate lives in the fleet benchmark, where
    # the naive event loop cannot hide behind warm caches.
    assert speedup >= 1.4


def test_shared_prefix_cache_prefill_savings(once):
    """Shared-prefix KV caching: >=2x less prefill at matched SLO attainment.

    Runs the ``shared-system-prompt`` scenario (every request behind one 8K
    system prompt) with prefix caching on and off on the identical trace and
    asserts the acceptance bar: total executed prefill FLOPs drop by at
    least 2x, median TTFT drops by at least 2x, and goodput does not regress
    — the capacity is free, not bought with SLO misses.
    """
    scenario = get_scenario("shared-system-prompt")

    def both():
        cached_start = time.perf_counter()
        cached = run_scenario(scenario, "colocated", seed=0)
        cached_wall = time.perf_counter() - cached_start
        uncached = run_scenario(scenario, "colocated", seed=0, prefix_caching=False)
        return cached, cached_wall, uncached

    cached, cached_wall, uncached = once(both)
    flops_ratio = uncached.prefill_flops_executed / max(cached.prefill_flops_executed, 1.0)
    ttft_ratio = uncached.metrics.ttft_p50 / max(cached.metrics.ttft_p50, 1e-9)
    _record(
        "shared-system-prompt.prefix-cache",
        cached,
        cached_wall,
        prefix_hit_rate=cached.prefix_hit_rate,
        prefix_hit_tokens=cached.prefix_hit_tokens,
        prefill_flops_executed=cached.prefill_flops_executed,
        prefill_flops_uncached=uncached.prefill_flops_executed,
        prefill_flops_reduction=flops_ratio,
        ttft_p50_reduction=ttft_ratio,
    )
    print()
    print(f"prefill PFLOPs uncached/cached: {uncached.prefill_flops_executed / 1e15:6.2f} / "
          f"{cached.prefill_flops_executed / 1e15:6.2f}  ({flops_ratio:.1f}x)")
    print(f"TTFT p50       uncached/cached: {uncached.metrics.ttft_p50:6.3f} / "
          f"{cached.metrics.ttft_p50:6.3f} s  ({ttft_ratio:.1f}x)")

    assert cached.token_accounting_balanced and uncached.token_accounting_balanced
    assert flops_ratio >= 2.0
    assert ttft_ratio >= 2.0
    assert cached.metrics.goodput_fraction >= uncached.metrics.goodput_fraction
    # The skipped work is accounted, not lost: skipped + executed covers the
    # uncached run's prefill demand (re-prefill after preemption aside).
    assert cached.prefix_flops_saved > cached.prefill_flops_executed


def test_recorder_overhead(once):
    """Event recording must be near-free: <10% wall-clock on steady-chat.

    Runs the ``steady-chat`` fleet scenario — the acceptance workload the
    fast-forward gate also uses, hundreds of overlapping requests across an
    autoscaled pool — with and without an :class:`EventRecorder` attached.
    One warm-up run feeds the process-global FLOPs caches, then the two arms
    interleave over seven rounds and the gate compares the best *paired*
    ratio: the arms run back to back inside each round exactly so that host
    noise (CPU contention, frequency drift) hits both sides of one ratio,
    and the cleanest round estimates the true overhead — on a busy host the
    per-round swing is several times that overhead, so comparing the
    independent floors of the two arms instead would need far more draws to
    converge.  Each timed run starts from a collected heap: without it, the
    garbage of one arm is collected inside the other arm's timing.  The
    observed run must also stay byte-identical: recording may cost
    wall-clock, never a simulated number.
    """
    scenario = get_fleet_scenario("steady-chat")

    def both():
        run_fleet_scenario(scenario, seed=0)  # warm-up, discarded
        plain_walls, observed_walls = [], []
        for _ in range(7):
            gc.collect()
            start = time.perf_counter()
            plain = run_fleet_scenario(scenario, seed=0)
            plain_walls.append(time.perf_counter() - start)
            recorder = EventRecorder()
            gc.collect()
            start = time.perf_counter()
            observed = run_fleet_scenario(scenario, seed=0, observe=recorder)
            observed_walls.append(time.perf_counter() - start)
        return plain, plain_walls, observed, observed_walls, recorder

    plain, plain_walls, observed, observed_walls, recorder = once(both)
    plain_wall, observed_wall = min(plain_walls), min(observed_walls)
    overhead = min(
        o / max(p, 1e-9) for p, o in zip(plain_walls, observed_walls)
    )
    _record(
        "steady-chat.recorder-overhead",
        observed,
        observed_wall,
        plain_wall_seconds=plain_wall,
        recorder_overhead=overhead,
        recorder_overhead_pct=(overhead - 1.0) * 100.0,
        events_recorded=len(recorder),
    )
    print()
    print(f"recorder off wall: {plain_wall:8.3f} s")
    print(f"recorder on  wall: {observed_wall:8.3f} s")
    print(f"best paired round: {(overhead - 1) * 100:+.1f}%")
    print(f"events recorded:   {len(recorder)}")

    assert len(recorder) > 0
    assert observed.metrics.ttft_p99 == plain.metrics.ttft_p99
    assert observed.metrics.goodput_fraction == plain.metrics.goodput_fraction
    assert [r.finish_time for r in observed.records] == [
        r.finish_time for r in plain.records
    ]
    assert overhead < 1.10


def test_attribution_overhead(once):
    """Critical-path reconstruction must stay cheap next to the simulation.

    Runs the same ``steady-chat`` fleet workload the recorder-overhead gate
    uses with a profiling recorder attached, then rebuilds every request's
    span decomposition (and proves the spans conserve the measured
    latencies).  The attribution pass is pure post-processing — it reads the
    recorded stream, never the engines — so it is gated against the
    simulation's own wall-clock: the diagnosis must not cost more than the
    run it explains.
    """
    scenario = get_fleet_scenario("steady-chat")

    def run():
        recorder = EventRecorder(profile=True)
        start = time.perf_counter()
        observed = run_fleet_scenario(scenario, seed=0, observe=recorder)
        sim_wall = time.perf_counter() - start
        attributions = build_attributions(recorder)
        checked = verify_conservation(recorder, attributions, records=observed.records)
        return recorder, observed, attributions, checked, sim_wall

    recorder, observed, attributions, checked, sim_wall = once(run)
    calls, attribution_wall = recorder.profiler.phases["attribution"]
    overhead = attribution_wall / max(sim_wall, 1e-9)
    _record(
        "steady-chat.attribution-overhead",
        observed,
        sim_wall,
        attribution_wall_seconds=attribution_wall,
        attribution_overhead=overhead,
        requests_attributed=len(attributions),
        requests_conservation_checked=checked,
    )
    print()
    print(f"simulation  wall: {sim_wall:8.3f} s")
    print(f"attribution wall: {attribution_wall:8.3f} s  "
          f"({overhead * 100:.1f}% of simulation, {calls} pass(es))")
    print(f"requests attributed/conservation-checked: {len(attributions)}/{checked}")

    assert checked == observed.metrics.num_requests
    assert len(attributions) >= checked
    assert overhead < 1.0


def test_serving_disaggregation_tail_latency(once):
    scenario = get_scenario("bursty-long")

    def both():
        colocated = run_scenario(scenario, "colocated", seed=0)
        start = time.perf_counter()
        disaggregated = run_scenario(scenario, "disaggregated", seed=0)
        wall = time.perf_counter() - start
        return colocated, disaggregated, wall

    colocated, disaggregated, wall = once(both)
    _record("bursty-long.disaggregated", disaggregated, wall)
    print()
    print(f"colocated     p99 TTFT: {colocated.metrics.ttft_p99:8.2f} s")
    print(f"disaggregated p99 TTFT: {disaggregated.metrics.ttft_p99:8.2f} s")
    assert disaggregated.metrics.ttft_p99 < colocated.metrics.ttft_p99
