"""Command-line interface for the SlimPipe reproduction.

Seven subcommands cover the library's main workflows without writing Python:

``plan``
    Grid-search the best hybrid-parallelism configuration of each training
    system (SlimPipe, Megatron-LM-like, DeepSpeed-like) for a model / GPU
    budget / context length — the procedure behind Figure 12's cells.

``schedule``
    Build a SlimPipe schedule, simulate one iteration and print its metrics,
    the per-device memory profile and an ASCII timeline; optionally export a
    Chrome trace.

``serve``
    Simulate an inference deployment (``repro.serving``) on a named scenario:
    continuous batching with chunked prefill and a paged KV cache, either
    colocated or prefill/decode-disaggregated, printing TTFT/TPOT
    percentiles, goodput under SLO, KV-cache utilization and prefix-cache
    hit rate; optionally compare both deployments side by side.  The
    observability flags — shared with ``fleet run`` — opt into the event
    recorder (:mod:`repro.obs`): ``--trace`` writes a Perfetto/Chrome trace
    with request lifelines and counter tracks, ``--timeseries`` a windowed
    TTFT/TPOT/goodput export, ``--slo-report`` prints the SLO burn-rate
    table and ``--self-profile`` the simulator's own wall-clock per engine
    phase.  The diagnosis flags build on the same recorder: ``--explain``
    prints the per-request critical-path attribution of the run's latency
    tail plus detected anomalies, ``--events PATH`` saves the raw stream as
    JSONL, ``--diff-against PATH`` explains which span buckets moved a
    latency quantile versus a previously saved stream, and
    ``--incident-report PATH`` writes the correlated anomaly/cluster-event
    postmortem (markdown, or JSON when the path ends in ``.json``).
    Decode fast-forwarding is on by
    default and exact (bit-identical metrics, several times faster);
    ``--no-fast-forward`` steps every iteration naively — useful only as the
    reference oracle.  ``--prefix-caching`` / ``--no-prefix-caching``
    override the scenario's shared-prefix KV caching default (the
    ``shared-system-prompt``, ``rag-shared-corpus`` and
    ``agentic-prefix-tree`` scenarios default it on), e.g.::

        python -m repro.cli serve --scenario shared-system-prompt
        python -m repro.cli serve --scenario shared-system-prompt --no-prefix-caching

    Multi-tenant scenarios (``noisy-neighbour``, ``tenant-flash-crowd``,
    ``batch-backfill-under-interactive``) print a per-tenant QoS table after
    the global metrics; ``--policy fair`` selects the weighted fair scheduler
    on any scenario, ``--tenant NAME`` filters the report to one tenant,
    ``--slo-class NAME`` swaps the global SLO for a named class, and
    ``--tenant-report PATH`` exports the per-tenant numbers as JSON::

        python -m repro.cli serve --scenario noisy-neighbour --tenant-report qos.json

``fleet``
    Drive the cluster-scale layer (``repro.fleet``): ``fleet run --scenario
    bursty-long --router least-tokens`` simulates a named fleet scenario —
    many serving replicas behind a routing policy, with autoscaling and
    failure injection — and prints latency/goodput metrics next to
    replica/GPU-hour/cost accounting; ``fleet plan --scenario bursty-long
    --slo-ttft-p99 2.0`` binary-searches the minimal (cheapest) replica
    count meeting the SLO through the sweep engine.  Like ``serve``, the
    cluster event loop fast-forwards stable decode stretches exactly
    (~10x wall-clock on decode-heavy fleets; ``--no-fast-forward`` on
    ``fleet run`` forces the naive stepper), which is what keeps the
    planner's dozens of full simulations per bisection cheap.  ``fleet run``
    also takes ``--prefix-caching`` / ``--no-prefix-caching`` to A/B
    per-replica shared-prefix KV caching (prefix-aware routing and the
    rate autoscaler's effective-capacity signal come with it).

``experiments``
    Regenerate a chosen paper experiment's data table (Figures 1-14 and
    Tables 2-4), the serving comparison, the fleet routing comparison, the
    prefix-cache on/off comparison (``experiments prefix-cache``), the
    per-tenant FCFS-vs-fair QoS comparison (``experiments tenant-qos``), or
    the scheme-context sweep; names and ``--list`` come from the experiment
    registry, ``repro.analysis.EXPERIMENTS``.

``obs``
    Offline analysis of a saved event stream: ``obs explain events.jsonl``
    reloads a ``--events`` JSONL and prints the event summary, latency
    attribution, anomaly table and (optionally) the incident report —
    ``--diff-against`` works here too, so two saved runs can be compared
    without re-simulating either.

``sweep``
    Drive the declarative sweep engine (``repro.sweep``): ``sweep run
    --name fig12 --workers 4`` evaluates a registered grid over worker
    processes with on-disk memoization (``--no-cache`` / ``--cache-dir``
    control the cache), ``sweep list-axes`` prints every registered spec's
    axes, and ``sweep golden --check`` / ``--regenerate`` verifies or
    rewrites the golden-metrics files under ``tests/goldens/``.

Unknown model, experiment, scenario, sweep or golden names exit with status
2 and the list of valid names.  Run ``python -m repro.cli --help`` (or any
subcommand with ``--help``) for the full set of options.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .analysis.experiments import EXPERIMENTS
from .analysis.observability import (
    anomaly_table,
    attribution_table,
    diff_table,
    event_summary_table,
    profile_table,
)
from .analysis.report import format_bytes, format_percent, render_table
from .constants import UnknownNameError, tokens_from_k
from .core.planner import SlimPipeOptions, SlimPipePlanner
from .hardware.topology import hopper_cluster
from .model.config import MODEL_REGISTRY, get_model_config
from .obs import (
    EventRecorder,
    build_attributions,
    build_timeseries,
    burn_report,
    diff_attributions,
    incident_report,
    write_incident_report,
    write_perfetto,
)
from .parallel.config import ParallelConfig, WorkloadConfig
from .sim.trace import write_chrome_trace
from .systems import DeepSpeedSystem, MegatronSystem, SlimPipeSystem

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------
def _cmd_plan(args: argparse.Namespace) -> int:
    model = get_model_config(args.model)
    cluster = hopper_cluster(args.gpus)
    sequence_length = tokens_from_k(args.context_k)
    workload = WorkloadConfig(
        sequence_length=sequence_length,
        tokens_per_iteration=max(int(args.tokens_per_iteration_m * 1024 * 1024), sequence_length),
    )
    systems = [
        SlimPipeSystem(allow_offload=args.allow_offload),
        MegatronSystem(),
        DeepSpeedSystem(),
    ]
    rows = []
    for system in systems:
        estimate = system.best_configuration(model, cluster, workload)
        if estimate.feasible:
            p = estimate.parallel
            rows.append(
                (
                    system.name,
                    format_percent(estimate.mfu),
                    f"{estimate.iteration_time:.1f} s",
                    f"{estimate.peak_memory_gib:.0f} GiB",
                    estimate.recompute.value,
                    f"t={p.t} c={p.c} d={p.d} e={p.e} p={p.p} v={p.v}"
                    + (f" n={p.num_slices}" if p.num_slices else ""),
                )
            )
        else:
            rows.append((system.name, estimate.reason, "-", "-", "-", "-"))
    print(
        render_table(
            ["system", "MFU", "iteration", "peak memory", "recompute", "configuration"],
            rows,
            title=(
                f"{model.name} | {args.gpus} GPUs | {args.context_k}K context | "
                f"{workload.global_batch_sequences} sequences/iteration"
            ),
        )
    )
    return 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------
def _cmd_schedule(args: argparse.Namespace) -> int:
    model = get_model_config(args.model)
    parallel = ParallelConfig(
        tensor_parallel_size=args.tensor_parallel,
        pipeline_parallel_size=args.pipeline_parallel,
        virtual_pipeline_size=args.virtual_stages,
        num_slices=args.slices or 4 * args.pipeline_parallel,
    )
    cluster = hopper_cluster(parallel.world_size)
    sequence_length = tokens_from_k(args.context_k)
    workload = WorkloadConfig(
        sequence_length=sequence_length,
        tokens_per_iteration=sequence_length * args.microbatches,
    )
    planner = SlimPipePlanner(
        model,
        cluster,
        parallel,
        workload,
        SlimPipeOptions(
            context_exchange=not args.no_context_exchange,
            vocab_parallel=not args.no_vocab_parallel,
        ),
    )
    execution = planner.run()
    metrics = execution.metrics
    print(f"schedule  : {execution.schedule.name}, {execution.schedule.total_passes()} passes")
    print(f"iteration : {metrics.iteration_time:.2f} s  (MFU {format_percent(metrics.mfu)}, "
          f"bubbles {format_percent(metrics.bubble_fraction)})")
    print(
        render_table(
            ["device", "model states", "peak activations", "peak total"],
            [
                (
                    profile.device,
                    format_bytes(profile.base_bytes),
                    format_bytes(profile.peak_activation_bytes),
                    format_bytes(profile.peak_bytes),
                )
                for profile in execution.memory_profiles
            ],
            title="per-device memory",
        )
    )
    if args.ascii_timeline:
        print(execution.timeline.render_ascii())
    if args.trace:
        path = write_chrome_trace(execution.timeline, args.trace)
        print(f"Chrome trace written to {path}")
    return 0


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _serving_result_text(result, title: str) -> str:
    text = result.metrics.to_text(title=title)
    text += (
        f"iterations={result.iterations}  "
        f"kv-capacity={result.kv_capacity_tokens} tokens  "
        f"tokens admitted/prefilled/requeued="
        f"{result.tokens_admitted}/{result.tokens_prefilled}/"
        f"{result.tokens_preempted_requeued}\n"
    )
    return text


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import SCENARIO_REGISTRY, get_scenario, run_scenario

    if args.list:
        print("available scenarios:", ", ".join(sorted(SCENARIO_REGISTRY)))
        return 0
    try:
        return _run_serve(args, get_scenario, run_scenario)
    except ValueError as error:
        # Infeasible deployments (model does not fit the GPU count, request
        # exceeds the pool's KV capacity, bad GPU count) are user input
        # errors here, not bugs — report them cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_serve(args: argparse.Namespace, get_scenario, run_scenario) -> int:
    scenario = get_scenario(args.scenario)
    model_name = args.model or scenario.model
    get_model_config(model_name)  # fail fast with the list of valid names
    if args.tenant is not None:
        if scenario.tenancy is None:
            raise ValueError(
                f"scenario {scenario.name!r} configures no tenants; "
                "--tenant needs a tenant-tagged scenario (e.g. noisy-neighbour)"
            )
        scenario.tenancy.get_tenant(args.tenant)  # exit 2 with valid names
    if args.slo_class is not None:
        from dataclasses import replace as _replace

        from .serving.tenancy import get_slo_class

        scenario = _replace(scenario, slo=get_slo_class(args.slo_class).slo)
    if args.compare:
        modes = ("colocated", "disaggregated")
    elif args.disaggregated:
        modes = ("disaggregated",)
    else:
        modes = ("colocated",)
    prefix_caching = None
    if args.prefix_caching:
        prefix_caching = True
    elif args.no_prefix_caching:
        prefix_caching = False
    retain_records = None
    if args.retain_records:
        retain_records = True
    elif args.no_retain_records:
        retain_records = False
    observing = _observing(args)
    for mode in modes:
        recorder = EventRecorder(profile=args.self_profile) if observing else None
        result = run_scenario(
            scenario,
            mode,
            model=model_name,
            num_gpus=args.gpus,
            seed=args.seed,
            policy=args.policy,
            fast_forward=not args.no_fast_forward,
            prefix_caching=prefix_caching,
            observe=recorder,
            retain_records=retain_records,
            max_requests=args.max_requests,
        )
        print(
            _serving_result_text(
                result,
                title=(
                    f"{scenario.name} | {model_name} | "
                    f"{args.gpus or scenario.num_gpus} GPUs | {mode} | seed {args.seed}"
                ),
            )
        )
        if result.tenant_metrics:
            from .serving.metrics import tenant_report_text

            tenants = result.tenant_metrics
            if args.tenant is not None:
                tenants = {
                    name: m for name, m in tenants.items() if name == args.tenant
                }
            print(
                tenant_report_text(
                    tenants, title=f"per-tenant QoS | {scenario.name} | {mode}"
                )
            )
        if args.tenant_report:
            path = _mode_suffixed(args.tenant_report, mode, len(modes) > 1)
            print(f"tenant report written to {_write_tenant_report(result, scenario, mode, args, path)}")
        attributions = anomalies = None
        if recorder is not None:
            attributions, anomalies = _diagnose(
                args,
                recorder,
                scenario.slo,
                label=f"{scenario.name} | {mode}",
                mode=mode,
                comparing=len(modes) > 1,
            )
        if args.trace:
            path = _mode_suffixed(args.trace, mode, len(modes) > 1)
            written = write_perfetto(
                recorder, path, anomalies=anomalies, attributions=attributions
            )
            print(f"Perfetto trace written to {written}")
        if args.timeseries:
            path = _mode_suffixed(args.timeseries, mode, len(modes) > 1)
            series = build_timeseries(recorder, slo=scenario.slo)
            print(f"time series written to {series.write(path)}")
        if args.slo_report:
            report = burn_report(recorder, scenario.slo)
            print(report.to_text(title=f"SLO burn-rate | {scenario.name} | {mode}"))
        if args.self_profile:
            print(profile_table(recorder.profiler))
    return 0


def _write_tenant_report(result, scenario, mode: str, args, path: str) -> str:
    """Write the per-tenant QoS metrics as a JSON artifact (the CI schema)."""
    import json

    tenants = {}
    for name, m in sorted(result.tenant_metrics.items()):
        if args.tenant is not None and name != args.tenant:
            continue
        tenants[name] = {
            "num_requests": m.num_requests,
            "output_tokens": m.output_tokens,
            "good_requests": m.good_requests,
            "goodput_fraction": m.goodput_fraction,
            "goodput_rps": m.goodput_rps,
            "ttft_p50": m.ttft_p50,
            "ttft_p95": m.ttft_p95,
            "ttft_p99": m.ttft_p99,
            "tpot_p50": m.tpot_p50,
            "tpot_p95": m.tpot_p95,
            "tpot_p99": m.tpot_p99,
            "slo_ttft": m.slo.ttft,
            "slo_tpot": m.slo.tpot,
        }
    payload = {
        "scenario": scenario.name,
        "mode": mode,
        "seed": args.seed,
        "policy": args.policy or scenario.batcher.policy,
        "tenants": tenants,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return path


def _mode_suffixed(path: str, mode: str, comparing: bool) -> str:
    """``out.json`` -> ``out.colocated.json`` when writing both modes."""
    if not comparing:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{mode}{ext}"


def _observing(args: argparse.Namespace) -> bool:
    """True when any observability/diagnosis flag needs the event recorder."""
    return bool(
        args.trace
        or args.timeseries
        or args.slo_report
        or args.self_profile
        or args.explain
        or args.diff_against
        or args.incident_report
        or args.events
    )


def _load_events(path: str) -> EventRecorder:
    """Reload a ``--events`` JSONL, mapping file problems to user errors."""
    try:
        return EventRecorder.from_jsonl(path)
    except OSError as error:
        raise ValueError(f"cannot read event stream {path}: {error}")
    except (KeyError, ValueError) as error:
        raise ValueError(f"malformed event stream {path}: {error}")


def _diagnose(
    args: argparse.Namespace,
    recorder: EventRecorder,
    slo,
    label: str,
    mode: str = "",
    comparing: bool = False,
):
    """The shared ``serve`` / ``fleet run`` diagnosis exports.

    Returns ``(attributions, anomalies)`` so the Perfetto exporter can attach
    the anomaly marker track and per-request span breakdowns; each is ``None``
    when the corresponding diagnosis was not requested, which keeps a plain
    ``--trace`` export byte-identical to earlier releases.
    """
    attributions = anomalies = None
    if args.explain or args.diff_against:
        attributions = build_attributions(recorder)
    if args.explain:
        print(attribution_table(attributions, title=f"latency attribution | {label}"))
    if args.diff_against:
        baseline = build_attributions(_load_events(args.diff_against))
        diff = diff_attributions(baseline, attributions, metric="ttft", quantile=50.0)
        print(diff_table(diff, title=f"vs {args.diff_against} | {label}"))
    if args.explain or args.incident_report:
        report = incident_report(recorder, slo=slo, title=label)
        anomalies = report.anomalies
        if args.explain:
            print(anomaly_table(anomalies, title=f"anomalies | {label}"))
        if args.incident_report:
            path = _mode_suffixed(args.incident_report, mode, comparing)
            written = write_incident_report(report, path)
            print(
                f"incident report written to {written} "
                f"({len(report.incidents)} incident(s), {len(anomalies)} anomaly(ies))"
            )
    if args.events:
        path = _mode_suffixed(args.events, mode, comparing)
        print(f"event stream written to {recorder.to_jsonl(path)}")
    return attributions, anomalies


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------
def _cmd_fleet_run(args: argparse.Namespace) -> int:
    from .fleet import FLEET_SCENARIO_REGISTRY, get_fleet_scenario, run_fleet_scenario

    if args.list:
        print("available fleet scenarios:", ", ".join(sorted(FLEET_SCENARIO_REGISTRY)))
        return 0
    scenario = get_fleet_scenario(args.scenario)
    prefix_caching = None
    if args.prefix_caching:
        prefix_caching = True
    elif args.no_prefix_caching:
        prefix_caching = False
    observing = _observing(args)
    recorder = EventRecorder(profile=args.self_profile) if observing else None
    try:
        result = run_fleet_scenario(
            scenario,
            router=args.router,
            replicas=args.replicas,
            seed=args.seed,
            load_scale=args.load_scale,
            autoscale=False if args.no_autoscale else None,
            with_failures=not args.no_failures,
            fast_forward=not args.no_fast_forward,
            prefix_caching=prefix_caching,
            observe=recorder,
        )
    except ValueError as error:
        # Infeasible deployments (model does not fit the replica's GPU
        # slice, request exceeds a replica's KV capacity) are user input
        # errors here, not bugs — report them cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 2
    title = (
        f"{scenario.name} | {scenario.model} | "
        f"{args.replicas or scenario.initial_replicas} initial replicas x "
        f"{scenario.gpus_per_replica} GPUs | seed {args.seed}"
    )
    print(result.to_text(title=title))
    print(
        f"iterations={result.iterations}  "
        f"tokens admitted/prefilled/requeued="
        f"{result.tokens_admitted}/{result.tokens_prefilled}/"
        f"{result.tokens_preempted_requeued}"
    )
    attributions = anomalies = None
    if recorder is not None:
        try:
            attributions, anomalies = _diagnose(
                args, recorder, scenario.slo, label=scenario.name
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.trace:
        written = write_perfetto(
            recorder, args.trace, anomalies=anomalies, attributions=attributions
        )
        print(f"Perfetto trace written to {written}")
    if args.timeseries:
        series = build_timeseries(recorder, slo=scenario.slo)
        print(f"time series written to {series.write(args.timeseries)}")
    if args.slo_report:
        report = burn_report(recorder, scenario.slo)
        print(report.to_text(title=f"SLO burn-rate | {scenario.name}"))
    if args.self_profile:
        print(profile_table(recorder.profiler))
    return 0


def _cmd_fleet_plan(args: argparse.Namespace) -> int:
    from .fleet import plan_capacity

    try:
        plan = plan_capacity(
            args.scenario,
            slo_ttft_p99=args.slo_ttft_p99,
            min_goodput=args.min_goodput,
            router=args.router,
            seed=args.seed,
            load_scale=args.load_scale,
            max_replicas=args.max_replicas,
            workers=args.workers,
            cache=_sweep_cache(args),
        )
    except ValueError as error:
        # Bad numeric inputs (negative SLO, zero replicas, bad load scale)
        # are user errors here, not bugs — report them cleanly.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(plan.to_text())
    return 0 if plan.feasible else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def _sweep_cache(args: argparse.Namespace):
    from .sweep import SweepCache

    if args.no_cache:
        return None
    return SweepCache(directory=args.cache_dir)


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from .sweep import get_sweep_spec, run_sweep

    spec = get_sweep_spec(args.name)
    result = run_sweep(spec, workers=args.workers, cache=_sweep_cache(args))
    print(result.table().to_text())
    return 0


def _cmd_sweep_list_axes(args: argparse.Namespace) -> int:
    from .sweep import SWEEP_REGISTRY, get_sweep_spec

    names = [args.name] if args.name else sorted(SWEEP_REGISTRY)
    for name in names:
        print(get_sweep_spec(name).describe())
        print()
    return 0


def _cmd_sweep_golden(args: argparse.Namespace) -> int:
    from .sweep import (
        available_goldens,
        check_golden,
        get_golden_definition,
        record_golden,
    )

    names = args.names or available_goldens()
    for name in names:
        get_golden_definition(name)  # fail fast with the list of valid names
    if args.regenerate:
        for name in names:
            print(f"recorded {record_golden(name, directory=args.dir)}")
        return 0
    failures = 0
    for name in names:
        check = check_golden(name, directory=args.dir)
        print(check.report())
        failures += 0 if check.ok else 1
    if failures:
        print(f"{failures} of {len(names)} goldens failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# obs
# ---------------------------------------------------------------------------
def _cmd_obs_explain(args: argparse.Namespace) -> int:
    try:
        recorder = _load_events(args.events)
        baseline = _load_events(args.diff_against) if args.diff_against else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    label = os.path.basename(args.events)
    print(event_summary_table(recorder, title=f"recorded events | {label}"))
    attributions = build_attributions(recorder)
    print(
        attribution_table(
            attributions,
            quantile=args.quantile,
            title=f"latency attribution | {label}",
        )
    )
    if baseline is not None:
        diff = diff_attributions(
            build_attributions(baseline), attributions, metric="ttft", quantile=50.0
        )
        print(diff_table(diff, title=f"vs {os.path.basename(args.diff_against)} | {label}"))
    slo = None
    if args.slo_ttft is not None:
        from .serving.metrics import SLO

        slo = SLO(ttft=args.slo_ttft, tpot=args.slo_tpot)
    report = incident_report(recorder, slo=slo, title=label)
    print(anomaly_table(report.anomalies, title=f"anomalies | {label}"))
    if args.incident_report:
        written = write_incident_report(report, args.incident_report)
        print(
            f"incident report written to {written} "
            f"({len(report.incidents)} incident(s), {len(report.anomalies)} anomaly(ies))"
        )
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------
def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list:
        print("available experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    names: List[str] = args.names or []
    if not names:
        print("nothing to do: pass experiment names (e.g. fig2 tab4) or --list", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; use --list", file=sys.stderr)
        return 2
    for name in names:
        print(EXPERIMENTS[name].generate().to_text())
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``serve`` / ``fleet run`` observability exports.

    Any of them turns the event recorder on for the run; none of them leaves
    the simulation's hot path untouched (and its numbers byte-identical).
    """
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Perfetto/Chrome trace JSON of the observed run",
    )
    parser.add_argument(
        "--timeseries",
        metavar="PATH",
        help="write windowed TTFT/TPOT/goodput/queue/KV time series JSON",
    )
    parser.add_argument(
        "--slo-report",
        action="store_true",
        help="print the windowed SLO burn-rate report",
    )
    parser.add_argument(
        "--self-profile",
        action="store_true",
        help="meter the simulator's own wall-clock per engine phase",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the latency-attribution and anomaly tables for the run",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        help="write the raw event stream as JSONL (reload with `obs explain`)",
    )
    parser.add_argument(
        "--diff-against",
        metavar="PATH",
        help="diff this run's span breakdown against a saved --events JSONL",
    )
    parser.add_argument(
        "--incident-report",
        metavar="PATH",
        help=(
            "write the anomaly/cluster-event postmortem "
            "(markdown, or JSON when PATH ends in .json)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SlimPipe reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan = subparsers.add_parser("plan", help="grid-search the best configuration per system")
    plan.add_argument("--model", default="llama-13b", choices=sorted(MODEL_REGISTRY))
    plan.add_argument("--gpus", type=int, default=64)
    plan.add_argument("--context-k", type=int, default=256)
    plan.add_argument("--tokens-per-iteration-m", type=float, default=4.0)
    plan.add_argument("--allow-offload", action="store_true")
    plan.set_defaults(handler=_cmd_plan)

    schedule = subparsers.add_parser("schedule", help="simulate one SlimPipe iteration")
    schedule.add_argument("--model", default="llama-13b", choices=sorted(MODEL_REGISTRY))
    schedule.add_argument("--tensor-parallel", type=int, default=8)
    schedule.add_argument("--pipeline-parallel", type=int, default=4)
    schedule.add_argument("--virtual-stages", type=int, default=1)
    schedule.add_argument("--slices", type=int, default=None)
    schedule.add_argument("--context-k", type=int, default=128)
    schedule.add_argument("--microbatches", type=int, default=2)
    schedule.add_argument("--no-context-exchange", action="store_true")
    schedule.add_argument("--no-vocab-parallel", action="store_true")
    schedule.add_argument("--ascii-timeline", action="store_true")
    schedule.add_argument("--trace", metavar="PATH", help="write a Chrome trace JSON")
    schedule.set_defaults(handler=_cmd_schedule)

    serve = subparsers.add_parser(
        "serve", help="simulate an inference serving deployment on a scenario"
    )
    serve.add_argument("--scenario", default="chat", help="scenario name (see --list)")
    serve.add_argument("--model", default=None, help="override the scenario's model")
    serve.add_argument("--gpus", type=int, default=None, help="override the scenario's GPU count")
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument(
        "--policy",
        choices=("fcfs", "priority", "fair"),
        default=None,
        help="admission policy (fair = weighted per-tenant fair scheduling)",
    )
    serve.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="restrict the per-tenant QoS report to one tenant (must be "
        "configured by the scenario; unknown names exit 2)",
    )
    serve.add_argument(
        "--slo-class",
        default=None,
        metavar="NAME",
        help="override the scenario's global SLO with a named SLO class "
        "(interactive / batch / best-effort; unknown names exit 2)",
    )
    serve.add_argument(
        "--tenant-report",
        metavar="PATH",
        default=None,
        help="write the per-tenant QoS metrics as a JSON artifact",
    )
    deployment = serve.add_mutually_exclusive_group()
    deployment.add_argument(
        "--disaggregated",
        action="store_true",
        help="simulate the prefill/decode-disaggregated deployment",
    )
    deployment.add_argument(
        "--compare",
        action="store_true",
        help="simulate both deployments and print both metric tables",
    )
    _add_observability_flags(serve)
    serve.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="step every decode iteration naively (the slow reference oracle)",
    )
    prefix_group = serve.add_mutually_exclusive_group()
    prefix_group.add_argument(
        "--prefix-caching",
        action="store_true",
        help="force shared-prefix KV caching on (default: the scenario's setting)",
    )
    prefix_group.add_argument(
        "--no-prefix-caching",
        action="store_true",
        help="force shared-prefix KV caching off (the A/B baseline)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="truncate the workload to its first N requests (smoke-test a "
        "slice of a massive scenario without paying for the full trace)",
    )
    retain_group = serve.add_mutually_exclusive_group()
    retain_group.add_argument(
        "--retain-records",
        action="store_true",
        help="force per-request record retention on (default: the scenario's "
        "setting; massive-* scenarios stream with bounded memory)",
    )
    retain_group.add_argument(
        "--no-retain-records",
        action="store_true",
        help="drop per-request records after the metrics fold and use "
        "bounded-memory P2 percentiles (colocated only)",
    )
    serve.add_argument("--list", action="store_true", help="list available scenarios")
    serve.set_defaults(handler=_cmd_serve)

    fleet = subparsers.add_parser(
        "fleet", help="simulate or capacity-plan a multi-replica serving fleet"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = fleet_sub.add_parser("run", help="simulate a named fleet scenario")
    fleet_run.add_argument("--scenario", default="steady-chat", help="scenario name (see --list)")
    fleet_run.add_argument("--router", default=None, help="override the scenario's routing policy")
    fleet_run.add_argument(
        "--replicas", type=int, default=None, help="override the initial replica count"
    )
    fleet_run.add_argument("--seed", type=int, default=0, help="workload seed")
    fleet_run.add_argument(
        "--load-scale",
        type=float,
        default=1.0,
        help="compress arrivals by this factor (2.0 doubles the offered QPS)",
    )
    fleet_run.add_argument(
        "--no-autoscale", action="store_true", help="freeze the fleet at its initial size"
    )
    fleet_run.add_argument(
        "--no-failures", action="store_true", help="strip the scenario's failure plan"
    )
    _add_observability_flags(fleet_run)
    fleet_run.add_argument(
        "--no-fast-forward",
        action="store_true",
        help="step every decode iteration naively (the slow reference oracle)",
    )
    fleet_prefix = fleet_run.add_mutually_exclusive_group()
    fleet_prefix.add_argument(
        "--prefix-caching",
        action="store_true",
        help="force per-replica shared-prefix KV caching on",
    )
    fleet_prefix.add_argument(
        "--no-prefix-caching",
        action="store_true",
        help="force per-replica shared-prefix KV caching off (the A/B baseline)",
    )
    fleet_run.add_argument("--list", action="store_true", help="list available fleet scenarios")
    fleet_run.set_defaults(handler=_cmd_fleet_run)

    fleet_plan = fleet_sub.add_parser(
        "plan", help="search the minimal replica count meeting an SLO"
    )
    fleet_plan.add_argument("--scenario", default="bursty-long", help="scenario name")
    fleet_plan.add_argument(
        "--slo-ttft-p99", type=float, required=True, help="TTFT p99 bound in seconds"
    )
    fleet_plan.add_argument(
        "--min-goodput", type=float, default=None, help="optional goodput-fraction floor"
    )
    fleet_plan.add_argument("--router", default=None, help="override the scenario's routing policy")
    fleet_plan.add_argument("--seed", type=int, default=0, help="workload seed")
    fleet_plan.add_argument(
        "--load-scale", type=float, default=1.0, help="offered-load multiplier"
    )
    fleet_plan.add_argument(
        "--max-replicas", type=int, default=None, help="search ceiling (default: scenario's)"
    )
    fleet_plan.add_argument(
        "--workers", type=int, default=0, help="worker processes for the ladder sweep"
    )
    fleet_plan.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    fleet_plan.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="cache directory (default: $REPRO_SWEEP_CACHE_DIR or ~/.cache/repro-sweep)",
    )
    fleet_plan.set_defaults(handler=_cmd_fleet_plan)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate paper experiment tables"
    )
    experiments.add_argument("names", nargs="*", help="experiment ids, e.g. fig2 fig12 tab4")
    experiments.add_argument("--list", action="store_true", help="list available experiments")
    experiments.set_defaults(handler=_cmd_experiments)

    obs = subparsers.add_parser("obs", help="offline analysis of saved event streams")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_explain = obs_sub.add_parser(
        "explain", help="attribution/anomaly/incident analysis of an --events JSONL"
    )
    obs_explain.add_argument("events", help="event stream JSONL written by --events")
    obs_explain.add_argument(
        "--diff-against",
        metavar="PATH",
        default=None,
        help="baseline event stream JSONL to diff this run against",
    )
    obs_explain.add_argument(
        "--quantile",
        type=float,
        default=99.0,
        help="tail quantile for the attribution table (default: 99)",
    )
    obs_explain.add_argument(
        "--slo-ttft",
        type=float,
        default=None,
        help="TTFT bound in seconds (enables SLO burn-rate anomaly detection)",
    )
    obs_explain.add_argument(
        "--slo-tpot",
        type=float,
        default=0.1,
        help="TPOT bound in seconds (used with --slo-ttft)",
    )
    obs_explain.add_argument(
        "--incident-report",
        metavar="PATH",
        default=None,
        help="also write the incident-report artifact",
    )
    obs_explain.set_defaults(handler=_cmd_obs_explain)

    sweep = subparsers.add_parser(
        "sweep", help="run declarative sweeps and manage golden metrics"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="run a registered sweep")
    sweep_run.add_argument("--name", default="scheme-context", help="sweep name (see list-axes)")
    sweep_run.add_argument(
        "--workers", type=int, default=0, help="worker processes (<=1 runs in-process)"
    )
    sweep_run.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    sweep_run.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="cache directory (default: $REPRO_SWEEP_CACHE_DIR or ~/.cache/repro-sweep)",
    )
    sweep_run.set_defaults(handler=_cmd_sweep_run)

    sweep_axes = sweep_sub.add_parser("list-axes", help="print the axes of registered sweeps")
    sweep_axes.add_argument("--name", default=None, help="restrict to one sweep")
    sweep_axes.set_defaults(handler=_cmd_sweep_list_axes)

    sweep_golden = sweep_sub.add_parser(
        "golden", help="check or regenerate the golden-metrics files"
    )
    sweep_golden.add_argument("names", nargs="*", help="golden names (default: all)")
    golden_mode = sweep_golden.add_mutually_exclusive_group()
    golden_mode.add_argument(
        "--check", action="store_true", help="recompute and diff (the default)"
    )
    golden_mode.add_argument(
        "--regenerate", action="store_true", help="rewrite the files instead of checking"
    )
    sweep_golden.add_argument(
        "--dir", metavar="PATH", default=None, help="goldens directory (default: tests/goldens)"
    )
    sweep_golden.set_defaults(handler=_cmd_sweep_golden)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also exposed as the ``slimpipe-repro`` console script).

    Registry misses (unknown model, scenario or experiment names) are turned
    into a non-zero exit with the list of valid names on stderr instead of an
    uncaught ``KeyError`` traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnknownNameError as error:
        # Registry misses: unknown model / scenario / serving-mode names.
        # (Deliberately narrow — a stray KeyError from a genuine bug should
        # keep its traceback.)
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
