"""The three benchmark workloads: set-up, one batch job, and its output checks.

Each workload is a fixed-size batch job on the host; arrivals inside the
simulation follow an open-loop Poisson schedule generated from the seed.

* ``serve-stream`` — a streamed ``massive-chat`` slice, colocated llama-13b
  on 4 GPUs, no records, no prefix caching, no recorder.  Arrivals every
  ~6.7 ms break almost every decode stretch, so per-iteration work (batcher
  planning, KV reservation, pricing, the prefill-budget search, the
  streaming metrics fold) carries the load.
* ``fleet-prefix-failover`` — the ``shared-system-prompt`` fleet (prefix
  caching, arrival-rate autoscaler) routed ``kv-aware`` over a seeded
  shared-8K-prompt trace, with one crash and one slow-node window inside
  the horizon, records retained and an event recorder attached; critical
  path attribution and its conservation check run at the end, as
  ``fleet run --explain`` does.  Most iterations run inside coalesced
  decode stretches, so the event heap, stretch execution, prefix cache,
  router, autoscaler, failover, record-path metrics and recorder carry it.
* ``train-plan`` — the paper's planning path at 128 GPUs: the grid search
  of SlimPipe, Megatron-LM and DeepSpeed for Llama-70B and Mixtral-8x7B at
  64K-512K contexts (as ``plan`` and ``experiments fig12`` do), then the
  SlimPipe event simulation of the chosen configuration on a subset of the
  points (as ``schedule`` does).  The only workload that touches parallel,
  systems, schedules and sim.  Planning is deterministic, so the seed only
  permutes the order of the points and the digest is seed-independent.

A job's outcome is an :class:`Outcome`: a digest of every simulated number
it produced, the operations it counts (one per serving job, one per planned
point), the operations whose checks failed, and result-side statistics the
traced run reports.
"""

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field

import catalog

#: Seed whose output digests are pinned in ``digests.json``.
PINNED_SEED = 1
#: Held-out seed for serve-stream and fleet-prefix-failover: checked with
#: invariants only, so a later claim can be re-checked on a seed that was not
#: used while writing it.
HELD_OUT_SEED = 2

#: Exceptions the simulator raises for a failed run (``DeadlockError`` is a
#: ``RuntimeError``; the conservation oracle raises an ``AssertionError``).
FAILURES = (RuntimeError, AssertionError)


@dataclass
class Outcome:
    digest: str
    operations: int
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def digest_of(*values):
    """SHA-256 over the exact ``repr`` of simulated numbers."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


class _ServingWorkload:
    """One job simulates ``num_requests`` requests and is one operation."""

    seed_independent = False
    num_requests = 0

    def items(self, ctx):
        return self.num_requests

    def operations(self, ctx):
        return 1


class ServeStream(_ServingWorkload):
    name = catalog.SERVE
    num_requests = 5000

    def build(self, seed):
        from repro.model.config import get_model_config
        from repro.serving import ServingEngine, get_scenario

        scenario = get_scenario("massive-chat")
        ServingEngine(get_model_config(scenario.model), scenario.serving_config())
        return {"scenario": scenario, "seed": seed}

    def job(self, ctx):
        from repro.serving import run_scenario

        return run_scenario(ctx["scenario"], seed=ctx["seed"], max_requests=self.num_requests)

    def check(self, ctx, result):
        failures = []
        metrics = result.metrics
        if result.retain_records or result.records:
            failures.append("run retained records; the workload streams")
        if metrics.num_requests != self.num_requests:
            failures.append(f"finished {metrics.num_requests} of {self.num_requests} requests")
        if not result.token_accounting_balanced:
            failures.append("token accounting is not balanced")
        digest = digest_of(
            dataclasses.astuple(metrics),
            result.iterations,
            result.tokens_admitted,
            result.tokens_prefilled,
            result.tokens_preempted_requeued,
            result.preemptions,
        )
        stats = {"preemptions": result.preemptions}
        return Outcome(digest, 1, failures, stats)


class FleetPrefixFailover(_ServingWorkload):
    name = catalog.FLEET
    num_requests = 1200
    arrival_rate = 2.5

    def build(self, seed):
        from repro.fleet import FleetEngine, get_fleet_scenario
        from repro.fleet.failures import FailureEvent, FailurePlan
        from repro.model.config import get_model_config
        from repro.obs import critical_path  # noqa: F401  (imported for the job)

        scenario = get_fleet_scenario("shared-system-prompt")
        model = get_model_config(scenario.model)
        horizon = self.num_requests / self.arrival_rate
        plan = FailurePlan(
            events=(
                FailureEvent(time=0.35 * horizon, kind="crash", replica_index=0, duration=30.0),
                FailureEvent(
                    time=0.65 * horizon, kind="slow", replica_index=1, duration=20.0,
                    slowdown=2.0,
                ),
            )
        )
        config = scenario.fleet_config()
        FleetEngine(model, config, router="kv-aware", failure_plan=plan)
        return {"seed": seed, "scenario": scenario, "model": model, "config": config, "plan": plan}

    def job(self, ctx):
        from repro.fleet import FleetEngine
        from repro.obs import critical_path
        from repro.obs.events import EventRecorder
        from repro.serving import workload

        trace = workload.shared_prefix_trace(
            num_requests=self.num_requests,
            arrival_rate=self.arrival_rate,
            prefix_tokens=8192,
            suffix_mean=256,
            output_mean=128,
            seed=ctx["seed"],
        )
        recorder = EventRecorder()
        config = dataclasses.replace(ctx["config"], observe=recorder)
        engine = FleetEngine(ctx["model"], config, router="kv-aware", failure_plan=ctx["plan"])
        result = engine.run(trace, ctx["scenario"].slo)
        # Module attributes are looked up at call time, so traced jobs see the
        # wrappers the tracer installs.
        attributions = critical_path.build_attributions(recorder)
        conserved = critical_path.verify_conservation(recorder, attributions, result.records)
        return result, len(recorder.events), conserved

    def check(self, ctx, outcome):
        result, events, conserved = outcome
        failures = []
        if len(result.records) != self.num_requests or not all(
            record.finished for record in result.records
        ):
            failures.append("not every request finished")
        if not result.token_accounting_balanced:
            failures.append("token accounting is not balanced")
        if conserved != self.num_requests:
            failures.append(f"conservation checked {conserved} of {self.num_requests} requests")
        fleet = result.fleet
        if (fleet.crashes, fleet.slow_events) != (1, 1):
            failures.append(
                f"expected one crash and one slow window, saw {fleet.crashes} and {fleet.slow_events}"
            )
        digest = digest_of(
            dataclasses.astuple(result.metrics),
            dataclasses.astuple(fleet),
            result.iterations,
            result.tokens_admitted,
            result.tokens_prefilled,
            result.tokens_preempted_requeued,
            events,
        )
        stats = {
            "preemptions": result.preemptions,
            "crashes": fleet.crashes,
            "rerouted": fleet.rerouted_requests,
            "fleet_iterations": result.iterations,
            "events_recorded": events,
        }
        return Outcome(digest, 1, failures, stats)


class TrainPlan:
    name = catalog.TRAIN
    seed_independent = True
    models = ("llama-70b", "mixtral-8x7b")
    contexts_k = (64, 128, 256, 512)
    num_gpus = 128
    #: Points whose chosen SlimPipe configuration is also event-simulated:
    #: enough that the simulation and the grid search each take at least a
    #: quarter of the job.
    simulated = {("llama-70b", 64)} | {("mixtral-8x7b", k) for k in contexts_k}

    def build(self, seed):
        from repro.constants import tokens_from_k
        from repro.core.planner import SlimPipePlanner  # noqa: F401  (imported for the job)
        from repro.hardware.topology import hopper_cluster
        from repro.model.config import get_model_config
        from repro.parallel.config import WorkloadConfig
        from repro.systems import DeepSpeedSystem, MegatronSystem, SlimPipeSystem

        points = []
        for model_name in self.models:
            for context_k in self.contexts_k:
                sequence = tokens_from_k(context_k)
                workload = WorkloadConfig(
                    sequence_length=sequence,
                    tokens_per_iteration=max(4 * 1024 * 1024, sequence),
                )
                points.append((model_name, context_k, get_model_config(model_name), workload))
        random.Random(seed).shuffle(points)
        return {
            "points": points,
            "cluster": hopper_cluster(self.num_gpus),
            "systems": (SlimPipeSystem(), MegatronSystem(), DeepSpeedSystem()),
        }

    def items(self, ctx):
        return len(ctx["points"])

    operations = items

    def job(self, ctx):
        """Per point: (key, estimates, simulation summary or None, error or None)."""
        from repro.core.planner import SlimPipePlanner
        from repro.hardware.topology import hopper_cluster

        rows = []
        for model_name, context_k, model, workload in ctx["points"]:
            key = (model_name, context_k)
            try:
                estimates = tuple(
                    system.best_configuration(model, ctx["cluster"], workload)
                    for system in ctx["systems"]
                )
                simulation = None
                slimpipe = estimates[0]
                if key in self.simulated and slimpipe.feasible:
                    parallel = slimpipe.parallel
                    execution = SlimPipePlanner(
                        model, hopper_cluster(parallel.world_size), parallel, workload
                    ).run()
                    simulation = (
                        execution.metrics,
                        len(execution.timeline.spans),
                        execution.schedule.total_passes(),
                    )
                rows.append((key, estimates, simulation, None))
            except FAILURES as error:
                rows.append((key, (), None, f"{type(error).__name__}: {error}"))
        return rows

    def check(self, ctx, rows):
        failures = []
        for key, estimates, simulation, error in rows:
            problem = error
            if problem is None:
                slimpipe = estimates[0]
                if not slimpipe.feasible:
                    problem = f"SlimPipe infeasible ({slimpipe.reason})"
                elif not 0.0 < slimpipe.mfu <= 1.0:
                    problem = f"SlimPipe MFU {slimpipe.mfu!r} outside (0, 1]"
                elif key in self.simulated:
                    metrics, simulated_passes, scheduled_passes = simulation
                    if not 0.0 < metrics.mfu <= 1.0:
                        problem = f"simulated MFU {metrics.mfu!r} outside (0, 1]"
                    elif simulated_passes != scheduled_passes:
                        problem = f"simulated {simulated_passes} of {scheduled_passes} passes"
            if problem is not None:
                failures.append(f"{key[0]} {key[1]}K: {problem}")
        digest = digest_of(*sorted(repr(row[:3]) for row in rows))
        return Outcome(digest, len(rows), failures, {})


WORKLOADS = {w.name: w for w in (ServeStream(), FleetPrefixFailover(), TrainPlan())}
