"""Named fleet scenarios: workload + fleet deployment knobs, pinned.

The fleet analogue of :mod:`repro.serving.scenarios`: every entry bundles a
deterministic trace factory with everything a fair fleet comparison needs
fixed — model, per-replica GPU slice, device mix, initial fleet size, router,
autoscaling policy, failure plan, sessions and SLO.  :func:`run_fleet_scenario`
drives the :class:`~repro.fleet.cluster.FleetEngine` end to end; its
``load_scale`` knob compresses arrival times (``2.0`` doubles the offered
QPS with the same request mix), which is what the capacity planner sweeps.

The registry:

``canary-chat``
    A tiny fixed-fleet chat trace: the fast smoke scenario tests and CI use,
    and the planner-monotonicity fixture.
``steady-chat``
    Steady Poisson chat over a reactive queue-depth autoscaler — the
    baseline fleet every routing policy should handle.
``bursty-long``
    Thundering herds of 32K prompts over background chat: the scenario where
    routing long prefills *away* from loaded replicas separates the
    token-aware policies from round-robin, and the capacity-planner
    acceptance scenario.
``flash-crowd``
    A 5x arrival-rate step mid-trace with a predictive arrival-rate
    autoscaler and a warm pool — reaction latency is the whole game.
``unreliable``
    Steady chat on a fixed fleet with injected crashes and a slow node:
    exercises failover re-routing and degradation-aware policies.
``hetero-mixed``
    Chat plus long-prompt RAG on a fleet that alternates Hopper and Ampere
    replicas — the KV-aware router's home turf.
``shared-system-prompt``
    Chat behind one large common system prompt with per-replica shared-prefix
    KV caching and an arrival-rate autoscaler: the prefix-hit-aware capacity
    signal provisions fewer replicas for the same SLO.
``rag-shared-corpus``
    Zipf-skewed RAG over a shared corpus routed ``kv-aware``: the router's
    prefix-hit potential concentrates each document's traffic where its KV
    blocks already live.
``agentic-prefix-tree``
    Interleaved agent sessions routed ``session-affinity`` with explicit
    ``Request.session`` ids, so a session's growing prefix branch stays on
    its home replica and later turns hit the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..constants import UnknownNameError
from ..model.config import get_model_config
from ..obs.events import EventRecorder
from ..serving.batcher import BatcherConfig
from ..serving.metrics import SLO
from ..serving.workload import (
    Request,
    agentic_tree_trace,
    bursty_trace,
    long_context_trace,
    merge_traces,
    poisson_trace,
    rag_corpus_trace,
    shared_prefix_trace,
)
from .autoscaler import AutoscalerConfig
from .cluster import FleetConfig, FleetEngine, FleetResult
from .failures import FailureEvent, FailurePlan

__all__ = [
    "FleetScenario",
    "FLEET_SCENARIO_REGISTRY",
    "get_fleet_scenario",
    "run_fleet_scenario",
]


@dataclass(frozen=True)
class FleetScenario:
    """A reproducible fleet experiment: workload plus deployment knobs."""

    name: str
    description: str
    trace_factory: Callable[[int], List[Request]]
    model: str = "llama-13b"
    gpus_per_replica: int = 4
    gpu_types: Tuple[str, ...] = ("hopper-80gb",)
    initial_replicas: int = 3
    min_replicas: int = 1
    max_replicas: int = 16
    slo: SLO = field(default_factory=lambda: SLO(ttft=2.0, tpot=0.05))
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    block_tokens: int = 256
    router: str = "least-tokens"
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    sessions: int = 24
    scale_up_latency: float = 20.0
    warm_pool: int = 0
    warm_up_latency: float = 2.0
    prefix_caching: bool = False

    def make_trace(self, seed: int = 0, load_scale: float = 1.0) -> List[Request]:
        """The scenario's trace; ``load_scale > 1`` compresses arrivals."""
        if load_scale <= 0:
            raise ValueError("load_scale must be positive")
        trace = self.trace_factory(seed)
        if load_scale == 1.0:
            return trace
        return [
            replace(request, arrival_time=request.arrival_time / load_scale)
            for request in trace
        ]

    def fleet_config(
        self,
        replicas: Optional[int] = None,
        autoscale: Optional[bool] = None,
    ) -> FleetConfig:
        """The scenario's engine configuration (colocated TPOT cap wired in).

        ``replicas`` pins the initial fleet size; ``autoscale=False`` freezes
        it there (the capacity planner evaluates fixed fleets this way).
        """
        autoscaler = self.autoscaler
        if autoscale is False:
            autoscaler = replace(autoscaler, policy="none")
        initial = self.initial_replicas if replicas is None else replicas
        maximum = max(self.max_replicas, initial)
        return FleetConfig(
            gpus_per_replica=self.gpus_per_replica,
            gpu_types=self.gpu_types,
            initial_replicas=initial,
            min_replicas=min(self.min_replicas, initial),
            max_replicas=maximum,
            block_tokens=self.block_tokens,
            batcher=self.batcher,
            tpot_cap=0.7 * self.slo.tpot,
            scale_up_latency=self.scale_up_latency,
            warm_pool=self.warm_pool,
            warm_up_latency=self.warm_up_latency,
            autoscaler=autoscaler,
            sessions=self.sessions,
            prefix_caching=self.prefix_caching,
        )


def _canary_chat_trace(seed: int) -> List[Request]:
    return poisson_trace(
        num_requests=60,
        arrival_rate=2.0,
        prompt_mean=4096,
        output_mean=64,
        seed=seed,
    )


def _steady_chat_trace(seed: int) -> List[Request]:
    return poisson_trace(
        num_requests=240,
        arrival_rate=3.0,
        prompt_mean=2048,
        output_mean=192,
        seed=seed,
    )


def _bursty_long_trace(seed: int) -> List[Request]:
    bursts = bursty_trace(
        num_bursts=6,
        burst_size=8,
        burst_interval=12.0,
        prompt_mean=32_768,
        output_mean=128,
        seed=seed,
        prompt_cv=0.15,
        output_cv=0.25,
    )
    background = poisson_trace(
        num_requests=60,
        arrival_rate=1.0,
        prompt_mean=2048,
        output_mean=128,
        seed=seed + 1,
    )
    return merge_traces(bursts, background)


def _flash_crowd_trace(seed: int) -> List[Request]:
    background = poisson_trace(
        num_requests=70,
        arrival_rate=1.0,
        prompt_mean=2048,
        output_mean=160,
        seed=seed,
    )
    crowd = [
        replace(request, arrival_time=request.arrival_time + 30.0)
        for request in poisson_trace(
            num_requests=100,
            arrival_rate=5.0,
            prompt_mean=2048,
            output_mean=160,
            seed=seed + 1,
        )
    ]
    return merge_traces(background, crowd)


def _unreliable_trace(seed: int) -> List[Request]:
    return poisson_trace(
        num_requests=180,
        arrival_rate=2.5,
        prompt_mean=2048,
        output_mean=160,
        seed=seed,
    )


def _unreliable_failures() -> FailurePlan:
    return FailurePlan(
        events=(
            FailureEvent(time=20.0, kind="crash", replica_index=0, duration=25.0),
            FailureEvent(
                time=35.0, kind="slow", replica_index=1, duration=20.0, slowdown=2.5
            ),
            FailureEvent(time=50.0, kind="crash", replica_index=2, duration=25.0),
        )
    )


def _hetero_mixed_trace(seed: int) -> List[Request]:
    chat = poisson_trace(
        num_requests=120,
        arrival_rate=1.5,
        prompt_mean=2048,
        output_mean=160,
        seed=seed,
    )
    rag = long_context_trace(
        num_requests=40,
        arrival_rate=0.5,
        short_prompt_mean=2048,
        long_prompt_mean=32_768,
        long_fraction=0.35,
        output_mean=192,
        seed=seed + 1,
    )
    return merge_traces(chat, rag)


def _fleet_shared_prompt_trace(seed: int) -> List[Request]:
    return shared_prefix_trace(
        num_requests=140,
        arrival_rate=2.5,
        prefix_tokens=8192,
        suffix_mean=256,
        output_mean=128,
        seed=seed,
    )


def _fleet_rag_corpus_trace(seed: int) -> List[Request]:
    return rag_corpus_trace(
        num_requests=100,
        arrival_rate=1.2,
        num_documents=16,
        document_tokens=16_384,
        question_mean=384,
        output_mean=128,
        seed=seed,
        system_tokens=1024,
    )


def _fleet_agentic_trace(seed: int) -> List[Request]:
    return agentic_tree_trace(
        num_sessions=16,
        turns_per_session=5,
        scaffold_tokens=4096,
        turn_tokens=512,
        output_mean=160,
        seed=seed,
        session_rate=0.8,
    )


FLEET_SCENARIO_REGISTRY: Dict[str, FleetScenario] = {
    scenario.name: scenario
    for scenario in (
        FleetScenario(
            name="canary-chat",
            description="tiny chat canary: the fast smoke / planner-test scenario",
            trace_factory=_canary_chat_trace,
            initial_replicas=2,
            max_replicas=8,
            sessions=8,
        ),
        FleetScenario(
            name="steady-chat",
            description="steady Poisson chat on a reactive queue-depth autoscaler",
            trace_factory=_steady_chat_trace,
            initial_replicas=3,
            autoscaler=AutoscalerConfig(policy="queue-depth", interval=5.0),
        ),
        FleetScenario(
            name="bursty-long",
            description="herds of 32K prompts over background chat (planner scenario)",
            trace_factory=_bursty_long_trace,
            initial_replicas=4,
            slo=SLO(ttft=4.0, tpot=0.05),
            autoscaler=AutoscalerConfig(policy="queue-depth", interval=5.0),
        ),
        FleetScenario(
            name="flash-crowd",
            description="5x arrival-rate step against a predictive autoscaler",
            trace_factory=_flash_crowd_trace,
            initial_replicas=2,
            slo=SLO(ttft=3.0, tpot=0.05),
            autoscaler=AutoscalerConfig(
                policy="arrival-rate", interval=5.0, replica_rps=1.5, headroom=1.3
            ),
            scale_up_latency=15.0,
            warm_pool=2,
        ),
        FleetScenario(
            name="unreliable",
            description="steady chat with injected crashes and a slow node",
            trace_factory=_unreliable_trace,
            initial_replicas=4,
            slo=SLO(ttft=3.0, tpot=0.05),
            failure_plan=_unreliable_failures(),
            sessions=16,
        ),
        FleetScenario(
            name="hetero-mixed",
            description="chat + RAG on alternating Hopper/Ampere replicas",
            trace_factory=_hetero_mixed_trace,
            gpu_types=("hopper-80gb", "ampere-80gb"),
            initial_replicas=4,
            slo=SLO(ttft=5.0, tpot=0.08),
            router="kv-aware",
        ),
        FleetScenario(
            name="shared-system-prompt",
            description="chat behind one 8K system prompt, prefix caching + rate autoscaler",
            trace_factory=_fleet_shared_prompt_trace,
            initial_replicas=2,
            max_replicas=8,
            slo=SLO(ttft=2.5, tpot=0.05),
            autoscaler=AutoscalerConfig(
                policy="arrival-rate", interval=5.0, replica_rps=1.0, headroom=1.2
            ),
            prefix_caching=True,
        ),
        FleetScenario(
            name="rag-shared-corpus",
            description="Zipf RAG corpus routed kv-aware onto prefix-warm replicas",
            trace_factory=_fleet_rag_corpus_trace,
            initial_replicas=3,
            slo=SLO(ttft=6.0, tpot=0.06),
            router="kv-aware",
            prefix_caching=True,
        ),
        FleetScenario(
            name="agentic-prefix-tree",
            description="agent sessions pinned to prefix-warm homes via session affinity",
            trace_factory=_fleet_agentic_trace,
            initial_replicas=3,
            slo=SLO(ttft=3.0, tpot=0.05),
            router="session-affinity",
            prefix_caching=True,
        ),
    )
}


def get_fleet_scenario(name: str) -> FleetScenario:
    """Look up a fleet scenario by name, listing valid names on a miss."""
    try:
        return FLEET_SCENARIO_REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown fleet scenario {name!r}; "
            f"available: {sorted(FLEET_SCENARIO_REGISTRY)}"
        ) from None


def run_fleet_scenario(
    scenario: FleetScenario,
    router: Optional[str] = None,
    replicas: Optional[int] = None,
    seed: int = 0,
    load_scale: float = 1.0,
    autoscale: Optional[bool] = None,
    with_failures: bool = True,
    fast_forward: bool = True,
    prefix_caching: Optional[bool] = None,
    observe: Optional[EventRecorder] = None,
) -> FleetResult:
    """Simulate a fleet scenario end to end.

    ``router`` / ``replicas`` / ``autoscale`` / ``prefix_caching`` override
    the scenario's defaults (the CLI and the capacity planner map their
    flags through here); ``with_failures=False`` strips the scenario's
    failure plan; ``fast_forward=False`` runs the naive per-iteration
    reference stepper instead of the pre-planned decode stretches.
    ``observe`` threads an :class:`~repro.obs.events.EventRecorder` through
    the cluster and every replica pool (opt-in observability).
    """
    model = get_model_config(scenario.model)
    config = scenario.fleet_config(replicas=replicas, autoscale=autoscale)
    if not fast_forward:
        config = replace(config, fast_forward=False)
    if prefix_caching is not None:
        config = replace(config, prefix_caching=prefix_caching)
    if observe is not None:
        config = replace(config, observe=observe)
    engine = FleetEngine(
        model,
        config,
        router=router or scenario.router,
        failure_plan=scenario.failure_plan if with_failures else FailurePlan(),
    )
    trace = scenario.make_trace(seed=seed, load_scale=load_scale)
    return engine.run(trace, scenario.slo)
