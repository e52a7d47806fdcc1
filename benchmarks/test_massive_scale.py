"""Million-request scale: streaming throughput and bounded peak memory.

The ``massive-*`` scenarios stream their workloads (``retain_records=False``):
arrivals are generated lazily, finished requests fold into a bounded
:class:`~repro.serving.StreamingMetrics` accumulator and their per-request
state is dropped.  These benchmarks pin the two properties that make the
family usable at million-request scale:

* **throughput** — a 100k-request slice of ``massive-chat`` must simulate at
  >= 200k requests per wall-clock minute (measured *without* tracemalloc,
  which alone slows the loop several-fold), and
* **bounded memory** — peak tracemalloc memory must be flat as the trace
  grows: a 50k-request run may not peak more than 1.5x a 10k-request run,
  and both must stay under an absolute ceiling.  The runs are warmed first
  so the process-global FLOPs caches don't shadow the engine's own
  footprint; the comparison sizes both exceed the per-pool pricing memo's
  clear threshold so the bounded caches are saturated on both sides.

The full 1M-request acceptance run — same gates, whole trace — is opt-in
behind ``REPRO_MASSIVE_FULL=1`` (the traced arm alone costs ~15 minutes).

Rows land in ``BENCH_massive.new.json`` (override with ``$BENCH_MASSIVE_JSON``)
so CI can archive the trajectory and ``bench_delta.py --gate`` can hold the
line on wall-clock, goodput and ``peak_tracemalloc_mb``.
"""

import gc
import os
import time
import tracemalloc

import pytest

from _bench_artifact import BenchArtifact
from repro.model import costs as model_costs
from repro.model import flops as model_flops
from repro.serving import get_scenario, run_scenario
from repro.serving import engine as serving_engine

_ARTIFACT = BenchArtifact("massive")

# Minimum simulated requests per wall-clock minute for massive-chat slices.
MIN_REQUESTS_PER_MINUTE = 200_000
# Peak traced memory of the larger arm may not exceed this multiple of the
# smaller arm's peak (observed ratio ~1.1 with generous slack for allocator
# noise), nor this absolute ceiling (observed peaks ~6 MB).
MAX_MEMORY_GROWTH = 1.5
MAX_PEAK_MB = 64.0


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_json():
    yield
    _ARTIFACT.write()
    # The 100k+ slices fill the process-global pricing caches with ~10^5
    # long-lived entries, which makes every later gen-2 GC pass expensive
    # and can shave the wall-clock ratios other benchmark modules assert
    # (file order puts this module before test_serving_throughput).  Leave
    # the process as this module found it.
    serving_engine._decode_flops_cached.cache_clear()
    serving_engine._decode_table.cache_clear()
    serving_engine._prefill_flops_cached.cache_clear()
    model_flops.layer_forward_flops.cache_clear()
    model_flops.output_layer_flops.cache_clear()
    model_flops.model_forward_flops.cache_clear()
    model_costs._layer_pass_time_cached.cache_clear()
    model_costs._output_layer_time_cached.cache_clear()
    gc.collect()


def _record(name, result, wall_seconds, num_requests, **extra):
    metrics = result.metrics
    _ARTIFACT.record(name, {
        "wall_seconds": wall_seconds,
        "num_requests": num_requests,
        "requests_per_wall_minute": num_requests / max(wall_seconds, 1e-9) * 60.0,
        "iterations": result.iterations,
        "makespan": metrics.duration,
        "ttft_p99": metrics.ttft_p99,
        "tpot_p50": metrics.tpot_p50,
        "goodput_fraction": metrics.goodput_fraction,
        "preemptions": result.preemptions,
        **extra,
    })


def _traced_peak_mb(scenario, max_requests):
    """Peak tracemalloc MB over one streamed slice, globals pre-warmed."""
    run_scenario(scenario, max_requests=2_000)
    tracemalloc.start()
    try:
        result = run_scenario(scenario, max_requests=max_requests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, result


def test_massive_chat_throughput_100k(once):
    """A 100k-request massive-chat slice streams at >= 200k requests/min."""
    scenario = get_scenario("massive-chat")

    def run():
        start = time.perf_counter()
        result = run_scenario(scenario, max_requests=100_000)
        return result, time.perf_counter() - start

    result, wall = once(run)
    per_minute = 100_000 / wall * 60.0
    _record("massive-chat.100k", result, wall, 100_000)
    print()
    print(f"wall: {wall:8.1f} s  ({per_minute:,.0f} requests/min)")
    print(result.metrics.to_text(title="massive-chat | 100k slice (streamed)"))

    assert not result.records, "streaming run must not retain per-request records"
    assert not result.retain_records
    assert result.metrics.num_requests == 100_000
    assert result.metrics.goodput_fraction >= 0.99
    assert per_minute >= MIN_REQUESTS_PER_MINUTE


def test_massive_chat_memory_bounded(once):
    """Peak traced memory is flat in trace length: 50k peaks ~ 10k peaks."""
    scenario = get_scenario("massive-chat")

    def run():
        start = time.perf_counter()
        small_mb, small = _traced_peak_mb(scenario, 10_000)
        large_mb, large = _traced_peak_mb(scenario, 50_000)
        return small_mb, small, large_mb, large, time.perf_counter() - start

    small_mb, small, large_mb, large, wall = once(run)
    _record(
        "massive-chat.memory-50k",
        large,
        wall,
        50_000,
        peak_tracemalloc_mb=large_mb,
        peak_tracemalloc_mb_10k=small_mb,
        memory_growth=large_mb / max(small_mb, 1e-9),
    )
    print()
    print(f"peak traced: 10k={small_mb:6.2f} MB   50k={large_mb:6.2f} MB   "
          f"(x{large_mb / max(small_mb, 1e-9):.2f})")

    assert small.metrics.goodput_fraction >= 0.99
    assert large.metrics.goodput_fraction >= 0.99
    assert large_mb <= small_mb * MAX_MEMORY_GROWTH
    assert large_mb <= MAX_PEAK_MB


@pytest.mark.parametrize("name", ["massive-diurnal", "massive-week"])
def test_massive_rate_curves_smoke(once, name):
    """The diurnal/weekly families stream a slice sustainably."""
    scenario = get_scenario(name)

    def run():
        start = time.perf_counter()
        result = run_scenario(scenario, max_requests=1_500)
        return result, time.perf_counter() - start

    result, wall = once(run)
    _record(f"{name}.1500", result, wall, 1_500)
    print()
    print(result.metrics.to_text(title=f"{name} | 1500 slice (streamed)"))

    assert not result.records
    assert result.metrics.num_requests == 1_500
    assert result.metrics.goodput_fraction >= 0.99


@pytest.mark.skipif(
    os.environ.get("REPRO_MASSIVE_FULL") != "1",
    reason="full 1M-request acceptance run; opt in with REPRO_MASSIVE_FULL=1",
)
def test_massive_chat_full_million(once):
    """The acceptance gate itself: 1M requests, single process.

    Wall throughput is gated on the untraced run; the traced arm re-runs
    the full trace under tracemalloc and must peak within
    ``MAX_MEMORY_GROWTH`` of a traced 100k run — memory flat over a 10x
    trace-length spread.
    """
    scenario = get_scenario("massive-chat")

    def run():
        start = time.perf_counter()
        result = run_scenario(scenario)
        wall = time.perf_counter() - start
        base_mb, _ = _traced_peak_mb(scenario, 100_000)
        full_mb, traced = _traced_peak_mb(scenario, None)
        return result, wall, base_mb, full_mb, traced

    result, wall, base_mb, full_mb, traced = once(run)
    per_minute = 1_000_000 / wall * 60.0
    _record(
        "massive-chat.1m",
        result,
        wall,
        1_000_000,
        peak_tracemalloc_mb=full_mb,
        peak_tracemalloc_mb_100k=base_mb,
        memory_growth=full_mb / max(base_mb, 1e-9),
    )
    print()
    print(f"wall: {wall:8.1f} s  ({per_minute:,.0f} requests/min)")
    print(f"peak traced: 100k={base_mb:6.2f} MB   1M={full_mb:6.2f} MB")
    print(result.metrics.to_text(title="massive-chat | 1M requests (streamed)"))

    assert not result.records
    assert result.metrics.num_requests == 1_000_000
    assert result.metrics.goodput_fraction >= 0.99
    assert per_minute >= MIN_REQUESTS_PER_MINUTE
    assert traced.metrics.num_requests == 1_000_000
    assert full_mb <= base_mb * MAX_MEMORY_GROWTH
    assert full_mb <= MAX_PEAK_MB
