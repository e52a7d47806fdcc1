"""Figure 12 — end-to-end MFU: DeepSpeed vs Megatron-LM vs SlimPipe.

The paper's headline grid (4 models x 4 context lengths x 128/256/512 GPUs,
4M tokens per iteration, configurations baked through grid search).  The
benchmark regenerates a representative slice of the grid — Llama 70B and
Mixtral 8x7B on 128 and 256 GPUs — and checks the paper's three claims:

* SlimPipe is feasible everywhere and never slower than the baselines,
* its advantage over Megatron-LM widens as the context grows,
* the baselines hit OOM / no-viable-configuration walls at long context.

The second test drives the same grid through the sweep engine
(``repro.sweep``): serially, fanned out over four worker processes, and
again against a warm on-disk cache, asserting that the three runs agree
cell-for-cell, that the warm re-run is an order of magnitude cheaper, and —
when the machine actually has the cores — that four workers beat serial by
at least 2x.
"""

import os
import time

from repro.analysis.figures import figure12_end_to_end
from repro.model.config import LLAMA_70B, MIXTRAL_8X7B
from repro.sweep import SweepCache

_FIG12_KWARGS = dict(
    models=(LLAMA_70B, MIXTRAL_8X7B),
    gpu_counts=(128, 256),
    sequence_ks=(64, 128, 256, 512),
)


def test_figure12_end_to_end(once):
    result = once(figure12_end_to_end, **_FIG12_KWARGS)
    print()
    print(result.to_text())
    def cell(system, sequence_k, model="llama-70b", num_gpus=128):
        return result.row(model=model, num_gpus=num_gpus, sequence_k=sequence_k, system=system)

    print("speedup over Megatron-LM (Llama 70B, 128 GPUs):")
    for seq_k in (64, 128, 256, 512):
        speedup = cell("slimpipe", seq_k)["speedup_over_megatron"]
        print(f"  {seq_k}K: {speedup:.2f}x" if speedup else f"  {seq_k}K: baseline infeasible")

    # SlimPipe always runs and always wins (or ties) against feasible baselines.
    for slim in result.rows:
        if slim["system"] != "slimpipe":
            continue
        assert slim["feasible"], f"SlimPipe infeasible at {slim}"
        for baseline in ("megatron-lm", "deepspeed"):
            other = cell(baseline, slim["sequence_k"], slim["model"], slim["num_gpus"])
            if other["feasible"]:
                assert slim["mfu"] >= other["mfu"] * 0.999

    # The advantage over Megatron-LM widens with context length (Llama 70B).
    s64 = cell("slimpipe", 64)["speedup_over_megatron"]
    s256 = cell("slimpipe", 256)["speedup_over_megatron"]
    assert s64 is not None and s256 is not None and s256 > s64

    # Baseline failure modes at 512K on 128 GPUs, as annotated in the figure.
    assert not cell("megatron-lm", 512)["feasible"]
    assert not cell("deepspeed", 512)["feasible"]


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux; respects cgroup/CPU pinning
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(**kwargs):
    t0 = time.perf_counter()
    result = figure12_end_to_end(**_FIG12_KWARGS, **kwargs)
    return time.perf_counter() - t0, result


def test_figure12_sweep_parallel_speedup_and_warm_cache(tmp_path):
    """The fig12 grid through the sweep engine: serial vs 4 workers vs cache."""
    t_serial, serial = _timed()
    cache = SweepCache(tmp_path)
    t_cold, cold = _timed(workers=4, cache=cache)
    t_warm, warm = _timed(workers=4, cache=cache)

    print(
        f"\nfig12 sweep: serial {t_serial:.2f}s, 4 workers cold {t_cold:.2f}s, "
        f"warm cache {t_warm:.3f}s"
    )

    # Worker processes and the cache must not change a single cell.
    assert serial.rows == cold.rows == warm.rows

    # A warm cache turns the sweep into a file read.
    assert t_warm < 0.25 * t_cold
    assert t_warm < 0.25 * t_serial

    # The parallel speedup claim needs actual cores to stand on; with fewer
    # than four the pool degenerates to time-slicing the same CPUs.  One
    # re-measurement absorbs noisy-neighbor interference on shared runners.
    if _available_cpus() >= 4:
        best = t_serial / t_cold
        for _ in range(2):
            if best >= 2.0:
                break
            t_s, _ = _timed()
            t_p, _ = _timed(workers=4)
            best = max(best, t_s / t_p)
        assert best >= 2.0, (
            f"expected >= 2x speedup with 4 workers; best observed {best:.2f}x"
        )
