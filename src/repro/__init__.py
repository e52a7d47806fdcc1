"""SlimPipe reproduction: memory-thrifty fine-grained pipeline parallelism.

A from-scratch Python reproduction of *SlimPipe: Memory-Thrifty and Efficient
Pipeline Parallelism for Long-Context LLM Training* (SC 2025), built on three
substrates:

* an analytic + discrete-event **simulation stack** (``repro.model``,
  ``repro.hardware``, ``repro.schedules``, ``repro.sim``) that prices any
  pipeline schedule on a Hopper-class cluster,
* the **SlimPipe core** (``repro.core``): uniform slicing, the slice-level
  1F1B schedule, attention context exchange, vocabulary parallelism, the
  chunked KV cache, activation offloading and an end-to-end planner,
* a NumPy **numeric engine** (``repro.numerics``) that proves the sliced,
  exchanged, vocabulary-parallel execution computes exactly the gradients of
  an unsliced single-device reference,

plus the **system models** (``repro.systems``) and the **analysis layer**
(``repro.analysis``) that regenerate every table and figure of the paper's
evaluation, and the **serving simulator** (``repro.serving``): the
inference-side dual of the training stack — continuous batching with chunked
prefill, a paged KV-cache allocator built on the Section 5 chunked cache,
shared-prefix KV caching over a radix-tree block index, prefill/decode
disaggregation with comm-priced KV hand-off, and TTFT/TPOT/goodput metrics
over a registry of named scenarios (see the ``serve`` CLI subcommand).  See
README.md for the quickstart and subsystem map, and the ``docs/`` tree for
per-subsystem guides (``docs/architecture.md`` is the entry point).

Fleet layer (``repro.fleet``)
-----------------------------
One replica is a simulator; production is a *fleet*.  ``repro.fleet`` lifts
the serving simulator to cluster scale:

* **Cluster.**  ``FleetEngine`` runs many serving replicas — each its own
  continuous-batching pool, heterogeneous GPU types cycled across replica
  indices — on one discrete-event heap, metering replica-hours and dollars
  (``GPU_HOURLY_USD``).
* **Routing.**  Arrivals are assigned by a pluggable policy over observable
  replica snapshots: ``round-robin``, ``least-tokens`` (outstanding-token
  aware), ``session-affinity`` (sticky sessions), ``kv-aware`` (free paged-KV
  share).
* **Autoscaling.**  A reactive queue-depth policy and a predictive
  arrival-rate EWMA policy scale the fleet against configurable cold/warm
  provisioning latencies; scaled-down replicas drain before retiring.
* **Failures.**  Deterministic ``FailurePlan`` schedules crash replicas
  (queued and running requests re-route, full-context re-prefill on the
  survivor) and degrade slow nodes by an iteration-time multiplier.
* **Capacity planning.**  ``plan_capacity`` answers "how many replicas meet
  this TTFT-p99/goodput SLO at this load?" with a doubling ladder plus
  bisection, evaluated through the sweep engine (parallel + memoized).

``python -m repro.cli fleet run --scenario bursty-long`` simulates a named
fleet scenario; ``fleet plan --scenario bursty-long --slo-ttft-p99 2.0``
prints the capacity frontier and the chosen fleet; ``experiments fleet``
tabulates routing policies across scenarios.

Sweeps and goldens (``repro.sweep``)
------------------------------------
Every paper-scale experiment is a grid, and ``repro.sweep`` is the machine
that runs grids:

* **Sweep specs.**  A ``SweepSpec`` declares *axes* (lists of JSON scalars:
  model names, GPU counts, context lengths ``sequence_k``, scheme or
  scenario names), a *base* of fixed parameters merged into every point, and
  the name of a registered *evaluator* (``fig12-cell``, ``scheme-point``,
  ``serving-scenario``) that maps one point to a flat metrics dict.  Named
  specs live in ``repro.sweep.SWEEP_REGISTRY`` (``fig12``,
  ``scheme-context``, ``serving``); ``python -m repro.cli sweep list-axes``
  prints them.
* **Execution.**  ``run_sweep(spec, workers=N, cache=SweepCache())``
  expands the grid, prunes points whose model states provably exceed the
  cluster's aggregate memory, resolves the rest against the cache and fans
  the misses out over ``N`` worker processes in contiguous chunks
  (``workers <= 1`` stays in-process).  ``figure12_end_to_end`` and
  ``serving_comparison`` accept the same ``workers`` / ``cache`` knobs.
* **Cache location and invalidation.**  Results are memoized as JSON under
  ``$REPRO_SWEEP_CACHE_DIR`` (default ``~/.cache/repro-sweep``), one file
  per spec name, keyed by a stable hash of (evaluator, point) and stamped
  with a fingerprint over every modelled constant (GPU spec, estimator
  settings, model registry, serving scenarios) and the numeric-core source
  (scheme formulas, cost models, the serving and fleet layers).  Changing
  any of them invalidates the file wholesale; ``--no-cache`` bypasses
  memoization.
* **Goldens.**  ``repro.sweep.golden`` pins the headline numbers of every
  figure/table and the serving scenarios' TTFT/TPOT/goodput as JSON under
  ``tests/goldens/``, stamped with the constants part of that fingerprint
  only (a source edit that moves a number fails on the values; one that
  moves none re-stamps nothing).  ``pytest tests -k golden``
  recomputes and diffs them within tolerance; after an intentional change,
  regenerate with ``python -m repro.cli sweep golden --regenerate`` and
  commit the rewritten files.

Performance: decode fast-forwarding
-----------------------------------
The serving and fleet engines fast-forward through *stable pure-decode
stretches* by default (``ServingConfig.fast_forward`` /
``FleetConfig.fast_forward``): when nothing is waiting, no prefill chunk is
in flight and neither a finishing request nor a KV-block shortfall is due,
the engines pre-validate the stretch analytically and execute it with
cached FLOPs component pairs and bulk paged-KV growth instead of a full
replan + reprice + reallocate per iteration.  The optimization is **exact**
— every timestamp, percentile and counter is bit-identical to the naive
one-iteration-at-a-time stepper (``fast_forward=False``, also exposed as
``--no-fast-forward`` on the ``serve`` and ``fleet run`` CLI commands), a
property the equivalence suite pins across every registered scenario — and
worth ~4-18x wall-clock on decode-heavy traffic (see the ``Performance``
section of README.md and the ``BENCH_serving.json`` / ``BENCH_fleet.json``
baselines).  Iterations that do not coalesce are priced from the batcher's
exact running decode-FLOPs totals and reserve KV only at block boundaries,
and latency percentiles sort each sample once per run in the metrics fold
(:class:`~repro.serving.metrics.StreamingMetrics`).

Shared-prefix KV caching
------------------------
Real long-context fleets share huge prompt prefixes — chat system prompts,
RAG corpus documents, agent scaffolds — and recomputing them per request
wastes most prefill FLOPs.  With ``prefix_caching=True``
(:class:`~repro.serving.ServingConfig` / ``FleetConfig``, the
``--prefix-caching`` CLI flag, and on by default in the
``shared-system-prompt`` / ``rag-shared-corpus`` / ``agentic-prefix-tree``
scenarios):

* requests declare their shareable prompt head symbolically
  (``Request.prefix``, ordered ``(segment_id, tokens)`` pairs);
* the paged allocator backs the leading context blocks by a **radix tree**
  of published blocks (``repro.serving.prefix_cache``) with copy-on-write
  refcounts; admitted requests skip prefill for cached blocks (prefill
  FLOPs are priced only on the uncached suffix), and freshly prefilled
  prefix blocks are published for the next request;
* unreferenced shared blocks stay resident and are reclaimed **LRU-first**
  only under memory pressure — never while referenced, and always before a
  live request is preempted;
* at fleet scale the ``kv-aware`` and ``session-affinity`` routers observe
  per-replica **prefix-hit potential** and the ``arrival-rate`` autoscaler
  credits the **effective-capacity gain** ``1/(1 - hit_rate)``;
* metrics gain hit rate, hit tokens, saved prefill FLOPs and evictions
  (``experiments prefix-cache`` prints the on/off A/B table).

Everything stays exact: decode fast-forwarding composes with prefix caching
bit-identically, and with ``prefix_caching=False`` every simulated number is
byte-identical to the pre-prefix engines (pinned by goldens and the
equivalence suite).

Observability layer (``repro.obs``)
-----------------------------------
Opt-in, zero-cost-when-off instrumentation over both engines (see
``docs/observability.md``): a structured lifecycle **event recorder**
(``ServingConfig.observe`` / ``FleetConfig.observe``), a **Perfetto/Chrome
trace exporter** with per-pool tracks, request lifelines and counter
tracks, **windowed time series** backed by constant-memory P² quantile
sketches, an **SLO burn-rate monitor**, and a **self-profiler** metering
simulator wall-clock per engine phase — all surfaced through the
``serve`` / ``fleet run`` CLI flags ``--trace`` / ``--timeseries`` /
``--slo-report`` / ``--self-profile``.  With no recorder attached every
simulated number is byte-identical (pinned by the goldens and
``tests/test_obs_recorder.py``).
"""

from . import (
    analysis,
    core,
    fleet,
    hardware,
    model,
    numerics,
    obs,
    parallel,
    schedules,
    serving,
    sim,
    sweep,
    systems,
)
from .core import SlimPipeOptions, SlimPipePlanner, build_slimpipe_schedule
from .hardware import HOPPER_80GB, ClusterTopology, hopper_cluster
from .model import MODEL_REGISTRY, ModelConfig, get_model_config
from .parallel import ParallelConfig, WorkloadConfig
from .fleet import (
    FleetEngine,
    FleetScenario,
    get_fleet_scenario,
    plan_capacity,
    run_fleet_scenario,
)
from .serving import (
    DisaggregatedEngine,
    ServingEngine,
    ServingScenario,
    get_scenario,
    run_scenario,
)
from .systems import DeepSpeedSystem, MegatronSystem, SlimPipeSystem

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analysis",
    "core",
    "hardware",
    "model",
    "numerics",
    "obs",
    "parallel",
    "schedules",
    "serving",
    "sim",
    "sweep",
    "systems",
    "ModelConfig",
    "MODEL_REGISTRY",
    "get_model_config",
    "ClusterTopology",
    "hopper_cluster",
    "HOPPER_80GB",
    "ParallelConfig",
    "WorkloadConfig",
    "build_slimpipe_schedule",
    "SlimPipePlanner",
    "SlimPipeOptions",
    "SlimPipeSystem",
    "MegatronSystem",
    "DeepSpeedSystem",
    "ServingEngine",
    "DisaggregatedEngine",
    "ServingScenario",
    "get_scenario",
    "run_scenario",
    "fleet",
    "FleetEngine",
    "FleetScenario",
    "get_fleet_scenario",
    "run_fleet_scenario",
    "plan_capacity",
]
