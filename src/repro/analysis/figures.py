"""Data generators for every figure in the paper's evaluation.

Each ``figureN_*`` function reproduces the data series behind the paper's
figure N using the reproduction's own substrates (closed forms, the
discrete-event simulator, the analytic system models) and returns a
:class:`~repro.analysis.report.Table`: plain dict rows, the columns that
render them, and the key layout of the figure's golden metrics.  The
benchmark harness and the examples print exactly the rows the paper plots
without any plotting dependency; :data:`repro.analysis.EXPERIMENTS` indexes
the generators by their ``experiments`` CLI name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..constants import GIB, KILO_TOKENS, tokens_from_k
from ..core.context_exchange import balance_workloads, concurrent_kv_slices
from ..core.planner import SlimPipeOptions, SlimPipePlanner
from ..core.schedule import SlimPipeScheduleConfig, build_slimpipe_schedule, warmup_units
from ..hardware.topology import hopper_cluster
from ..model.config import LLAMA_13B, LLAMA_70B, MIXTRAL_8X7B, ModelConfig
from ..model.memory import RecomputeMode
from ..parallel.config import ParallelConfig, WorkloadConfig
from ..schedules.formulas import (
    PAPER_SCHEMES,
    activation_memory_factor,
    bubble_fraction_estimate,
)
from ..sim.engine import SimulationEngine, UniformCostProvider
from ..sim.memory_tracker import MemoryTracker
from ..sim.providers import ModelActivationAccountant
from ..systems import AnalyticEstimator, SchemeSystem
from .report import Column, Table

# The sweep-driven figures (12-14) import ``repro.sweep`` when called: the
# golden harness there reads the experiment registry at import time.
if TYPE_CHECKING:
    from ..sweep.cache import SweepCache

__all__ = [
    "figure1_memory_footprint",
    "figure2_max_context",
    "figure3_bubble_fractions",
    "figure4_schedule_structure",
    "figure5_interleaved_schedule",
    "figure6a_activation_vs_slices",
    "figure6b_bubble_vs_slices",
    "figure6_slices_sweep",
    "figure7_imbalance_bubbles",
    "figure8_context_exchange_plan",
    "figure9_vocab_parallel_bubble",
    "figure10_memory_scaling",
    "figure11_mfu_vs_slices",
    "figure12_end_to_end",
    "figure13_scheme_mfu",
    "figure14_scheme_memory",
    "PAPER_SCHEMES",
]


# ===========================================================================
# Figure 1 — memory footprint vs PP size, classic PP vs SlimPipe
# ===========================================================================
def figure1_memory_footprint(
    model: ModelConfig = LLAMA_70B,
    sequence_length: int = 64 * KILO_TOKENS,
    pipeline_sizes: Sequence[int] = (1, 2, 4, 8, 16),
    tensor_parallel_size: int = 8,
    num_microbatches: int = 16,
    slices_per_stage: int = 4,
) -> Table:
    """Classic PP keeps activation memory constant; SlimPipe divides it by ``p``.

    Pipeline sizes that do not divide the model's layer count are skipped.
    """
    cluster = hopper_cluster(max(pipeline_sizes) * tensor_parallel_size)
    rows = []
    for p in pipeline_sizes:
        if model.num_layers % p != 0:
            continue
        parallel = ParallelConfig(
            tensor_parallel_size=tensor_parallel_size, pipeline_parallel_size=p
        )
        estimator = AnalyticEstimator(model, cluster)
        states = estimator.model_state_bytes(parallel)
        m_a = estimator.microbatch_activation_bytes(
            parallel, sequence_length, RecomputeMode.NONE
        )
        classic = m_a * activation_memory_factor("1f1b", p, num_microbatches)
        slim = m_a * activation_memory_factor(
            "slimpipe", p, num_microbatches, slices_per_stage * p
        )
        rows.append(
            {
                "pipeline_parallel_size": p,
                "model_state_gib": states / GIB,
                "classic_activation_gib": classic / GIB,
                "slimpipe_activation_gib": slim / GIB,
            }
        )
    context_k = sequence_length // KILO_TOKENS
    return Table(
        title=f"Figure 1 — GPU memory vs PP size ({model.name}, {context_k}K)",
        columns=(
            Column("p", "pipeline_parallel_size"),
            Column("model states (GiB)", "model_state_gib", "{:.1f}"),
            Column("classic PP activations (GiB)", "classic_activation_gib", "{:.1f}"),
            Column("SlimPipe activations (GiB)", "slimpipe_activation_gib", "{:.1f}"),
        ),
        rows=rows,
        golden=(
            (
                "p{pipeline_parallel_size}.{}",
                ("model_state_gib", "classic_activation_gib", "slimpipe_activation_gib"),
            ),
        ),
    )


# ===========================================================================
# Figure 2 — maximum context length per PP scheme
# ===========================================================================
def figure2_max_context(
    model: ModelConfig = LLAMA_13B,
    schemes: Sequence[str] = PAPER_SCHEMES,
    tensor_parallel_size: int = 8,
    pipeline_parallel_size: int = 8,
    tokens_per_iteration: int = 4 * 1024 * 1024,
    max_context_k: int = 1024,
    step_k: int = 4,
) -> Table:
    """Largest context each scheme can fit (no recompute restriction lifted).

    A scheme's maximum context is the largest multiple of ``step_k`` K tokens
    whose activations still fit device memory at the fixed TP/PP sizes
    *without* recomputation — Figure 2 measures the memory headroom of the
    schedule itself, before any memory/compute trade-off is invoked.
    """
    cluster = hopper_cluster(tensor_parallel_size * pipeline_parallel_size)
    rows = []
    for scheme in schemes:
        system = SchemeSystem(scheme, forced_recompute=RecomputeMode.NONE)
        feasible_k = 0
        low, high = step_k, max_context_k
        # Binary search over the context length grid.
        while low <= high:
            mid = (low + high) // 2 // step_k * step_k
            mid = max(step_k, mid)
            seq = tokens_from_k(mid)
            workload = WorkloadConfig(
                sequence_length=seq,
                tokens_per_iteration=max(tokens_per_iteration, seq),
            )
            parallel = ParallelConfig(
                tensor_parallel_size=tensor_parallel_size,
                pipeline_parallel_size=pipeline_parallel_size,
                data_parallel_size=1,
                num_slices=4 * pipeline_parallel_size,
            )
            estimate = system.evaluate(model, cluster, workload, parallel)
            if estimate.feasible:
                feasible_k = mid
                low = mid + step_k
            else:
                high = mid - step_k
        rows.append({"scheme": scheme, "max_context_k": feasible_k})
    return Table(
        title=f"Figure 2 — maximum context length ({model.name}, 8-way TP, 8-way PP)",
        columns=(
            Column("scheme", "scheme"),
            Column("max context (K tokens)", "max_context_k"),
        ),
        rows=rows,
        golden=(("{scheme}.{}", ("max_context_k",)),),
    )


# ===========================================================================
# Figure 3 — theoretical bubble fraction per scheme
# ===========================================================================
def figure3_bubble_fractions(
    model: ModelConfig = LLAMA_13B,
    schemes: Sequence[str] = PAPER_SCHEMES,
    pipeline_parallel_size: int = 8,
    num_microbatches: int = 4,
    sequence_length: int = 256 * KILO_TOKENS,
    num_slices: Optional[int] = None,
    virtual_stages: int = 5,
) -> Table:
    """Bubble fractions of the schemes at the Figure 3 operating point."""
    cluster = hopper_cluster(8)
    estimator = AnalyticEstimator(model, cluster)
    share = estimator.attention_share(sequence_length)
    n = num_slices or 4 * pipeline_parallel_size
    rows = []
    for scheme in schemes:
        v = virtual_stages if scheme in ("interleaved-1f1b", "slimpipe") else 1
        fraction = bubble_fraction_estimate(
            scheme, pipeline_parallel_size, num_microbatches, n, v, attention_share=share
        )
        rows.append({"scheme": scheme, "bubble_fraction": fraction})
    return Table(
        title="Figure 3 — theoretical bubble fractions (p=8, m=4, 256K context)",
        columns=(
            Column("scheme", "scheme"),
            Column("bubble fraction", "bubble_fraction", "{:.3f}"),
        ),
        rows=rows,
        golden=(("{scheme}.{}", ("bubble_fraction",)),),
    )


# ===========================================================================
# Figures 4 & 5 — schedule structure
# ===========================================================================
def _schedule_structure(p: int, m: int, n: int, v: int, name: str) -> Table:
    """One row per device plus the timeline as free text (no columns)."""
    schedule = build_slimpipe_schedule(p, m, n, v)
    config = SlimPipeScheduleConfig(p, m, n, v)
    timeline = SimulationEngine(schedule, UniformCostProvider(1.0, 2.0)).run()
    warmups = [warmup_units(config, r) for r in range(p)]
    peaks = schedule.max_inflight_activations()
    accumulated = max(peaks) / (n * v * p)
    return Table(
        title=f"{name}: p={p} m={m} n={n} v={v}",
        rows=[
            {"device": r, "warmup_units": w, "peak_activation_units": peak}
            for r, (w, peak) in enumerate(zip(warmups, peaks))
        ],
        body=(
            f"warm-up units per device: {warmups}\n"
            f"peak live slice-stage units: {peaks}\n"
            f"accumulated activation (fraction of one microbatch M_a): "
            f"{accumulated:.4f}\n" + timeline.render_ascii()
        ),
        summary={
            "num_devices": p,
            "num_microbatches": m,
            "num_slices": n,
            "stages_per_device": v,
            "accumulated_fraction": accumulated,
            "total_warmup_units": sum(warmups),
            "peak_activation_units_max": max(peaks),
        },
        golden=(
            ("{}", ("accumulated_fraction", "total_warmup_units", "peak_activation_units_max")),
            ("{}.dev{device}", ("warmup_units",)),
        ),
    )


def figure4_schedule_structure(
    pipeline_parallel_size: int = 4, num_microbatches: int = 3, num_slices: int = 8
) -> Table:
    """The plain SlimPipe schedule of Figure 4 (bottom)."""
    return _schedule_structure(
        pipeline_parallel_size, num_microbatches, num_slices, 1, "Figure 4 — SlimPipe schedule"
    )


def figure5_interleaved_schedule(
    pipeline_parallel_size: int = 4,
    num_microbatches: int = 2,
    num_slices: int = 8,
    stages_per_device: int = 2,
) -> Table:
    """The interleaved SlimPipe schedule of Figure 5."""
    return _schedule_structure(
        pipeline_parallel_size,
        num_microbatches,
        num_slices,
        stages_per_device,
        "Figure 5 — interleaved SlimPipe schedule",
    )


# ===========================================================================
# Figure 6 — activation memory and bubble fraction vs number of slices
# ===========================================================================
def figure6a_activation_vs_slices(
    pipeline_sizes: Sequence[int] = (4, 8, 16),
    slice_multipliers: Sequence[int] = (1, 2, 3, 4, 5, 6),
    num_microbatches: int = 8,
) -> Table:
    rows = [
        {
            "pipeline_parallel_size": p,
            "num_slices": mult * p,
            "activation_fraction": activation_memory_factor(
                "slimpipe", p, num_microbatches, mult * p
            ),
        }
        for p in pipeline_sizes
        for mult in slice_multipliers
    ]
    return Table(
        title="Figure 6a — activation memory vs number of slices",
        columns=(
            Column("p", "pipeline_parallel_size"),
            Column("n", "num_slices"),
            Column("activation (fraction of M_a)", "activation_fraction", "{:.4f}"),
        ),
        rows=rows,
        golden=(("activation.p{pipeline_parallel_size}.n{num_slices}", ("activation_fraction",)),),
    )


def figure6b_bubble_vs_slices(
    pipeline_parallel_size: int = 4,
    microbatch_counts: Sequence[int] = (2, 4, 8),
    slice_multipliers: Sequence[int] = (1, 2, 3, 4, 5, 6),
    attention_share: float = 0.5,
) -> Table:
    p = pipeline_parallel_size
    rows = [
        {
            "num_microbatches": m,
            "num_slices": mult * p,
            "bubble_fraction": bubble_fraction_estimate(
                "slimpipe", p, m, mult * p, attention_share=attention_share
            ),
        }
        for m in microbatch_counts
        for mult in slice_multipliers
    ]
    return Table(
        title=f"Figure 6b — bubble fraction vs number of slices (p={p})",
        columns=(
            Column("m", "num_microbatches"),
            Column("n", "num_slices"),
            Column("bubble fraction", "bubble_fraction", "{:.4f}"),
        ),
        rows=rows,
        golden=(("bubble.m{num_microbatches}.n{num_slices}", ("bubble_fraction",)),),
    )


def figure6_slices_sweep() -> Table:
    """Both panels of Figure 6 at their default operating points."""
    return Table(
        title="Figure 6 — activation memory and bubble fraction vs number of slices",
        panels=(figure6a_activation_vs_slices(), figure6b_bubble_vs_slices()),
    )


# ===========================================================================
# Figures 7 & 9 — SlimPipe timelines with one planner option toggled
# ===========================================================================
def _planner_runs(
    model: ModelConfig,
    pipeline_parallel_size: int,
    num_microbatches: int,
    num_slices: int,
    sequence_length: int,
    tensor_parallel_size: int,
    options: Sequence[SlimPipeOptions],
):
    """One planned SlimPipe iteration per option set, on otherwise equal inputs."""
    parallel = ParallelConfig(
        tensor_parallel_size=tensor_parallel_size,
        pipeline_parallel_size=pipeline_parallel_size,
        num_slices=num_slices,
    )
    workload = WorkloadConfig(
        sequence_length=sequence_length,
        tokens_per_iteration=sequence_length * num_microbatches,
    )
    return [
        SlimPipePlanner(
            model, hopper_cluster(parallel.world_size), parallel, workload, option
        ).run()
        for option in options
    ]


def figure7_imbalance_bubbles(
    model: ModelConfig = LLAMA_13B,
    pipeline_parallel_size: int = 4,
    num_microbatches: int = 2,
    num_slices: int = 8,
    sequence_length: int = 256 * KILO_TOKENS,
    tensor_parallel_size: int = 8,
) -> Table:
    """Simulate the SlimPipe timeline with and without attention rebalancing."""
    runs = _planner_runs(
        model,
        pipeline_parallel_size,
        num_microbatches,
        num_slices,
        sequence_length,
        tensor_parallel_size,
        [SlimPipeOptions(context_exchange=on, vocab_parallel=True) for on in (False, True)],
    )
    return Table(
        title="Figure 7 — imbalance bubbles caused by causal attention",
        columns=(
            Column("context exchange", "context_exchange"),
            Column("bubble fraction", "bubble_fraction", "{:.3f}"),
            Column("iteration time (s)", "iteration_time", "{:.2f}"),
        ),
        rows=[
            {
                "context_exchange": label,
                "exchange": exchange,
                "bubble_fraction": run.metrics.bubble_fraction,
                "iteration_time": run.iteration_time,
            }
            for label, exchange, run in zip(("off", "on"), ("without", "with"), runs)
        ],
        golden=(
            ("bubble_{exchange}_exchange", ("bubble_fraction",)),
            ("makespan_{exchange}_exchange", ("iteration_time",)),
        ),
    )


def figure9_vocab_parallel_bubble(
    model: ModelConfig = LLAMA_13B,
    pipeline_parallel_size: int = 4,
    num_microbatches: int = 2,
    num_slices: int = 8,
    sequence_length: int = 128 * KILO_TOKENS,
    tensor_parallel_size: int = 8,
) -> Table:
    runs = _planner_runs(
        model,
        pipeline_parallel_size,
        num_microbatches,
        num_slices,
        sequence_length,
        tensor_parallel_size,
        [SlimPipeOptions(context_exchange=True, vocab_parallel=on) for on in (False, True)],
    )
    return Table(
        title="Figure 9 — output-layer GEMM bubble with / without vocabulary parallelism",
        columns=(
            Column("output layer placement", "placement"),
            Column("iteration time (s)", "iteration_time", "{:.2f}"),
            Column("bubble fraction", "bubble_fraction", "{:.3f}"),
        ),
        rows=[
            {
                "placement": placement,
                "layer": layer,
                "iteration_time": run.iteration_time,
                "bubble_fraction": run.metrics.bubble_fraction,
            }
            for placement, layer, run in zip(
                ("last device only", "vocabulary parallel"),
                ("last_device_gemm", "vocab_parallel"),
                runs,
            )
        ],
        summary={"speedup": runs[0].iteration_time / runs[1].iteration_time},
        golden=(
            ("makespan_{layer}", ("iteration_time",)),
            ("bubble_{layer}", ("bubble_fraction",)),
            ("{}", ("speedup",)),
        ),
    )


# ===========================================================================
# Figure 8 — attention workload rebalancing
# ===========================================================================
def figure8_context_exchange_plan(
    num_devices: int = 6, num_slices: int = 12, phase_offset: int = 3
) -> Table:
    """The Figure 8 rebalancing example: arithmetic-progression loads equalised."""
    loads = concurrent_kv_slices(num_devices, phase_offset, num_slices)
    plan = balance_workloads(loads)
    return Table(
        title="Figure 8 — attention workload rebalanced by context exchange",
        columns=(
            Column("device", "device"),
            Column("KV slices before", "kv_before", "{:.1f}"),
            Column("KV slices after", "kv_after", "{:.1f}"),
        ),
        rows=[
            {"device": d, "kv_before": before, "kv_after": after}
            for d, (before, after) in enumerate(zip(plan.original, plan.balanced))
        ],
        summary={
            "num_transfers": len(plan.transfers),
            "max_imbalance_before": plan.max_imbalance_before,
            "max_imbalance_after": plan.max_imbalance_after,
        },
        golden=(("{}", ("num_transfers", "max_imbalance_before", "max_imbalance_after")),),
    )


# ===========================================================================
# Figure 10 — memory scaling with PP size, measured vs M_t / p
# ===========================================================================
def figure10_memory_scaling(
    model: ModelConfig = LLAMA_13B,
    sequence_ks: Sequence[int] = (32, 64, 96),
    pipeline_sizes: Sequence[int] = (2, 4, 5, 8, 10),
    tensor_parallel_size: int = 8,
    num_microbatches: int = 4,
    slices_per_stage: int = 4,
) -> Table:
    """Per-device peak memory of SlimPipe vs the ``M_t / p`` theoretical curve."""
    rows = []
    for seq_k in sequence_ks:
        seq = tokens_from_k(seq_k)
        for p in pipeline_sizes:
            if model.num_layers % p != 0:
                continue
            layers_per_device = model.num_layers // p
            v = layers_per_device  # maximum interleaving, as in the paper
            parallel = ParallelConfig(
                tensor_parallel_size=tensor_parallel_size,
                pipeline_parallel_size=p,
                virtual_pipeline_size=v,
                num_slices=slices_per_stage * p,
            )
            cluster = hopper_cluster(parallel.world_size)
            workload = WorkloadConfig(
                sequence_length=seq, tokens_per_iteration=seq * num_microbatches
            )
            planner = SlimPipePlanner(model, cluster, parallel, workload)
            schedule = planner.build_schedule()
            spec = planner.build_spec()
            profiles = MemoryTracker(
                schedule, ModelActivationAccountant(spec, cluster)
            ).profile()

            # Theoretical M_t / p: everything the training run needs, divided by p.
            no_pp = ParallelConfig(tensor_parallel_size=tensor_parallel_size)
            estimator = AnalyticEstimator(model, cluster)
            m_t = (
                estimator.model_state_bytes(no_pp)
                + estimator.microbatch_activation_bytes(no_pp, seq, RecomputeMode.NONE)
                + estimator.loss_logits_bytes(no_pp, seq)
            )
            rows.append(
                {
                    "sequence_k": seq_k,
                    "pipeline_parallel_size": p,
                    "first_device_gib": profiles[0].peak_bytes / GIB,
                    "last_device_gib": profiles[-1].peak_bytes / GIB,
                    "theoretical_gib": m_t / p / GIB,
                }
            )
    return Table(
        title=f"Figure 10 — memory vs PP size ({model.name}, 8-way TP, max interleave)",
        columns=(
            Column("context", "sequence_k", "{}K"),
            Column("p", "pipeline_parallel_size"),
            Column("first device (GiB)", "first_device_gib", "{:.1f}"),
            Column("last device (GiB)", "last_device_gib", "{:.1f}"),
            Column("M_t / p (GiB)", "theoretical_gib", "{:.1f}"),
        ),
        rows=rows,
        golden=(
            (
                "s{sequence_k}k.p{pipeline_parallel_size}.{}",
                ("first_device_gib", "last_device_gib", "theoretical_gib"),
            ),
        ),
    )


# ===========================================================================
# Figure 11 — MFU vs number of slices
# ===========================================================================
def figure11_mfu_vs_slices(
    model: ModelConfig = LLAMA_13B,
    sequence_ks: Sequence[int] = (128, 256, 512),
    slice_multipliers: Sequence[int] = (1, 2, 3, 4, 5, 6, 8),
    pipeline_parallel_size: int = 4,
    tensor_parallel_size: int = 8,
    virtual_stages: int = 5,
    num_microbatches: int = 2,
) -> Table:
    """Finer slicing first helps (fewer bubbles) then hurts (arithmetic intensity).

    The summary holds each context's best slice count, ``s<K>k.best_slices``.
    """
    cluster = hopper_cluster(tensor_parallel_size * pipeline_parallel_size)
    rows = []
    for seq_k in sequence_ks:
        seq = tokens_from_k(seq_k)
        workload = WorkloadConfig(
            sequence_length=seq, tokens_per_iteration=seq * num_microbatches
        )
        for mult in slice_multipliers:
            n = mult * pipeline_parallel_size
            system = SchemeSystem(
                "slimpipe",
                forced_recompute=RecomputeMode.FULL,
                num_slices=n,
                vocab_parallel=True,
            )
            parallel = ParallelConfig(
                tensor_parallel_size=tensor_parallel_size,
                pipeline_parallel_size=pipeline_parallel_size,
                virtual_pipeline_size=virtual_stages,
                num_slices=n,
            )
            estimate = system.evaluate(model, cluster, workload, parallel)
            rows.append(
                {
                    "sequence_k": seq_k,
                    "num_slices": n,
                    "mfu": estimate.mfu if estimate.feasible else 0.0,
                }
            )
    best = {
        f"s{seq_k}k.best_slices": max(
            (r for r in rows if r["sequence_k"] == seq_k), key=lambda r: r["mfu"]
        )["num_slices"]
        for seq_k in sequence_ks
    }
    return Table(
        title=f"Figure 11 — MFU vs number of slices ({model.name}, p=4)",
        columns=(
            Column("context", "sequence_k", "{}K"),
            Column("n", "num_slices"),
            Column("MFU (%)", "mfu", lambda r: f"{r['mfu'] * 100:.1f}"),
        ),
        rows=rows,
        summary=best,
        golden=(("s{sequence_k}k.n{num_slices}.{}", ("mfu",)), ("{}", tuple(best))),
    )


# ===========================================================================
# Figure 12 — end-to-end comparison DeepSpeed vs Megatron-LM vs SlimPipe
# ===========================================================================
def _mfu_label(row) -> str:
    if row["feasible"]:
        return f"{row['mfu'] * 100:.1f}%"
    return "OOM" if row["reason"] == "oom" else "no-config"


def figure12_end_to_end(
    models: Sequence[ModelConfig] = (LLAMA_70B, MIXTRAL_8X7B),
    gpu_counts: Sequence[int] = (128, 256),
    sequence_ks: Sequence[int] = (64, 128, 256, 512),
    tokens_per_iteration: int = 4 * 1024 * 1024,
    workers: int = 0,
    cache: Optional["SweepCache"] = None,
) -> Table:
    """The Figure 12 grid (a subset by default; pass the full lists to widen it).

    Each cell is one independent grid search, so the whole figure is a sweep:
    ``workers > 1`` fans the cells out over that many processes and ``cache``
    (a :class:`~repro.sweep.cache.SweepCache`) memoizes per-cell results on
    disk.  Cell order matches the historical nested loops (model, GPUs,
    context, system).  Each SlimPipe row also carries its
    ``speedup_over_megatron`` (``None`` when either side is infeasible).

    Models travel to the evaluator by registry name, so every entry of
    ``models`` must be (equal to) a registered configuration.
    """
    from ..model.config import get_model_config
    from ..sweep import SweepSpec, run_sweep

    for model in models:
        if get_model_config(model.name) != model:
            raise ValueError(
                f"figure12_end_to_end requires registered model configs; "
                f"{model.name!r} differs from MODEL_REGISTRY[{model.name!r}]"
            )
    spec = SweepSpec.make(
        name="fig12",
        evaluator="fig12-cell",
        axes={
            "model": tuple(model.name for model in models),
            "num_gpus": tuple(gpu_counts),
            "sequence_k": tuple(sequence_ks),
            "system": ("deepspeed", "megatron-lm", "slimpipe"),
        },
        base={"tokens_per_iteration": tokens_per_iteration},
    )
    rows = [
        {
            "model": str(point["model"]),
            "num_gpus": int(point["num_gpus"]),
            "sequence_k": int(point["sequence_k"]),
            "system": str(point["system"]),
            "feasible": bool(result["feasible"]),
            "reason": str(result["reason"]),
            "mfu": float(result["mfu"]),
        }
        for point, result in run_sweep(spec, workers=workers, cache=cache)
    ]
    megatron = {
        (r["model"], r["num_gpus"], r["sequence_k"]): r
        for r in rows
        if r["system"] == "megatron-lm"
    }
    for slim in rows:
        if slim["system"] == "slimpipe":
            base = megatron[slim["model"], slim["num_gpus"], slim["sequence_k"]]
            feasible = slim["feasible"] and base["feasible"] and base["mfu"] > 0
            slim["speedup_over_megatron"] = slim["mfu"] / base["mfu"] if feasible else None
    return Table(
        title="Figure 12 — end-to-end MFU comparison",
        columns=(
            Column("model", "model"),
            Column("GPUs", "num_gpus"),
            Column("context", "sequence_k", "{}K"),
            Column("system", "system"),
            Column("MFU", "mfu", _mfu_label),
        ),
        rows=rows,
        golden=(
            ("s{sequence_k}k.{system}.{}", ("feasible", "mfu")),
            ("s{sequence_k}k.{}", ("speedup_over_megatron",)),
        ),
    )


# ===========================================================================
# Figures 13 & 14 — scheme comparison: MFU and memory vs context length
# ===========================================================================
def _scheme_comparison(golden_field: str, sequence_ks: Sequence[int]) -> Table:
    """The ``scheme-context`` sweep behind Figures 13 (MFU) and 14 (memory).

    Mirrors Section 6.6 (see :func:`repro.sweep.evaluators.evaluate_scheme_point`):
    Llama 13B, per-iteration batch of 4 sequences, 8-way TP, full
    checkpointing, 5 stages per device for the interleaved schemes.  The
    zero-bubble variants run *without* checkpointing because, as the paper
    notes, "its built-in full checkpointing implementation does not work
    properly in this scheme" — which is what makes them run out of memory
    first (Figure 14).  Both figures render the same table; they differ only
    in the metric their golden pins.
    """
    from dataclasses import replace

    from ..sweep import SweepAxis, get_sweep_spec, run_sweep

    spec = get_sweep_spec("scheme-context")
    spec = replace(
        spec,
        axes=tuple(
            SweepAxis(axis.name, tuple(sequence_ks)) if axis.name == "sequence_k" else axis
            for axis in spec.axes
        ),
    )
    rows = [
        {
            "scheme": str(point["scheme"]),
            "sequence_k": point["sequence_k"],
            "feasible": bool(result["feasible"]),
            "mfu": float(result["mfu"]),
            "peak_memory_gib": float(result["peak_memory_gib"]),
        }
        for point, result in run_sweep(spec)
    ]
    return Table(
        title=f"Figures 13/14 — PP scheme comparison ({dict(spec.base)['model']}, 8-way TP)",
        columns=(
            Column("scheme", "scheme"),
            Column("context", "sequence_k", "{}K"),
            Column("MFU (%)", "mfu", lambda r: f"{r['mfu'] * 100:.1f}" if r["feasible"] else "OOM"),
            Column(
                "memory (GiB)",
                "peak_memory_gib",
                lambda r: f"{r['peak_memory_gib']:.1f}" if r["feasible"] else "-",
            ),
        ),
        rows=rows,
        golden=(("{scheme}.s{sequence_k}k.{}", ("feasible", golden_field)),),
    )


def figure13_scheme_mfu(sequence_ks: Sequence[int] = (32, 64, 128, 256, 512)) -> Table:
    """Figure 13: MFU of the PP schemes across context lengths."""
    return _scheme_comparison("mfu", sequence_ks)


def figure14_scheme_memory(sequence_ks: Sequence[int] = (32, 64, 128, 256, 512)) -> Table:
    """Figure 14: peak GPU memory of the PP schemes across context lengths."""
    return _scheme_comparison("peak_memory_gib", sequence_ks)
