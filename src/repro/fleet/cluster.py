"""Fleet-scale discrete-event serving: replicas, routing, scaling, failures.

:class:`FleetEngine` composes many single-replica serving pools (the same
:class:`~repro.serving.engine._Pool` the colocated :class:`ServingEngine`
steps — allocator, continuous batcher, cost model) into one cluster-level
event loop.  Where the serving engines drain a whole trace per pool, the
fleet loop interleaves everything that couples replicas in time:

* **arrivals** are routed on the spot by a pluggable
  :class:`~repro.fleet.router.Router`, which only observes per-replica
  queue/token/KV snapshots (what a real load balancer can see);
* **iterations** complete per replica — each replica runs its own continuous
  batching loop at its own pace, priced by its own GPU type (heterogeneous
  fleets cycle ``FleetConfig.gpu_types`` across replica indices);
* **autoscaler ticks** compare the observed backlog / arrival rate against
  the policy and provision or drain replicas, paying warm-pool or cold
  scale-up latency;
* **failure events** crash or degrade replicas: a crash hands every queued
  and running request back to the router (KV lost, full-context re-prefill
  on the survivor, delivered tokens stay delivered), a slow window stretches
  the victim's iteration times.

Events wait in two queues.  *Global* events (arrivals, autoscaler ticks,
failures, slow-window ends, provisioning and recovery) are pushed only by
other global events or the run's set-up, so the head of their queue bounds
every replica's future: no replica can be disturbed before it.  Replica
*completions* — the ends of iterations — wait in the second queue, and the
loop pops whichever head comes first.  Arrivals are pulled from the trace
one at a time, and the queued arrival goes first at its timestamp.
Otherwise, at equal timestamps a global event and a completion resolve by
insertion order; two completions resolve by
insertion order when a global event was pushed between them and by replica
id otherwise.  Every policy is deterministic, so a fleet run is a pure
function of (trace, config, failure plan) — the property the byte-identical
determinism test pins.

Replicas step through the same core as the serving engines
(:meth:`~repro.serving.engine._Pool.start` and
:meth:`~repro.serving.engine._Pool.complete`); the loop only decides when.
A completion starts the replica's next iteration with the global head as
its horizon, so every decode-stretch step that ends strictly before it folds
in one loop with no queue event, and only the step that reaches it is
queued.  Global handlers start iterations with no horizon: they may push
global events after the start.  Each replica owns its pools' statistics,
so they outlive a crash.  With a recorder, a replica's iterations appear as
the ITERATION and STRETCH events on its track, as a serving pool's do.

Replica-hours are metered from provisioning to retirement:
:data:`GPU_HOURLY_USD` prices them per GPU type, which is what the capacity
planner minimises subject to the SLO.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..analysis.report import render_table
from ..hardware.gpu import get_gpu_spec
from ..model.config import ModelConfig
from ..obs import events as obs_events
from ..obs.events import EventRecorder
from ..serving.batcher import BatcherConfig, RequestState
from ..serving.engine import (
    PoolCounters,
    PoolStats,
    ServingConfig,
    _IterationCap,
    _metrics_fold,
    _Pool,
)
from ..serving.metrics import SLO, RequestRecord, ServingMetrics, StreamingMetrics, TenantMetrics
from ..serving.prefix_cache import prefix_block_keys
from ..serving.tenancy import TenancyConfig
from ..serving.workload import Request
from .autoscaler import Autoscaler, AutoscalerConfig, FleetView, make_autoscaler
from .failures import FailurePlan
from .router import ReplicaSnapshot, Router, get_router

__all__ = [
    "GPU_HOURLY_USD",
    "FleetConfig",
    "FleetStats",
    "FleetResult",
    "FleetEngine",
]

#: Rough on-demand $/GPU-hour by device type, used to price a fleet.
GPU_HOURLY_USD: Dict[str, float] = {
    "hopper-80gb": 12.0,
    "ampere-80gb": 4.1,
}


@dataclass(frozen=True)
class FleetConfig:
    """Static configuration of a fleet deployment."""

    gpus_per_replica: int = 4
    gpu_types: Tuple[str, ...] = ("hopper-80gb",)
    initial_replicas: int = 2
    min_replicas: int = 1
    max_replicas: int = 16
    block_tokens: int = 256
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    tpot_cap: Optional[float] = None
    scale_up_latency: float = 30.0
    warm_pool: int = 0
    warm_up_latency: float = 2.0
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    sessions: int = 0
    max_total_iterations: int = 10_000_000
    #: Pre-plan stable pure-decode stretches per replica so their iterations
    #: skip the replan, priced from decode totals, and those ending before
    #: the next global event skip the event queue too (exact; ``False``
    #: forces the naive reference stepper).
    fast_forward: bool = True
    #: Shared-prefix KV caching per replica (see
    #: :attr:`~repro.serving.engine.ServingConfig.prefix_caching`): cached
    #: prefix blocks skip prefill, routers observe per-replica hit potential
    #: and the arrival-rate autoscaler credits the effective-capacity gain.
    prefix_caching: bool = False
    #: Keep every :class:`RequestRecord` in the result (the default,
    #: byte-identical path).  Finished requests always fold into one
    #: :class:`~repro.serving.metrics.StreamingMetrics`, and arrivals are
    #: always pulled lazily from the trace (one in flight in the queue at a
    #: time), so the run itself does not depend on this flag.  ``False``
    #: drops every record after its fold and switches the fold to P²
    #: quantile sketches, so a million-request fleet run over a trace
    #: iterable holds O(replicas + batch) state.
    retain_records: bool = True
    #: Opt-in observability: an :class:`~repro.obs.events.EventRecorder`
    #: threaded into every replica pool and the cluster loop itself.  ``None``
    #: (the default) keeps every emit site dormant and the run byte-identical.
    observe: Optional[EventRecorder] = field(default=None, compare=False, repr=False)
    #: Multi-tenant QoS contracts threaded into every replica's batcher (SLO
    #: classes, fair-share weights) and into the per-tenant result metrics.
    #: Token-bucket rate limits are a single-pool admission-control feature:
    #: per-replica buckets would multiply every tenant's global rate by the
    #: (autoscaled!) replica count, so a fleet rejects rate-limited tenants
    #: rather than enforce a meaningless limit.  ``None`` disables tenancy.
    tenancy: Optional[TenancyConfig] = None

    def __post_init__(self) -> None:
        if self.gpus_per_replica < 1:
            raise ValueError("gpus_per_replica must be >= 1")
        if self.block_tokens < 1:
            raise ValueError(f"block_tokens must be >= 1, not {self.block_tokens!r}")
        if self.max_total_iterations < 1:
            raise ValueError(
                f"max_total_iterations must be >= 1, not {self.max_total_iterations!r}"
            )
        if not self.gpu_types:
            raise ValueError("gpu_types must name at least one device")
        for name in self.gpu_types:
            get_gpu_spec(name)  # fail fast with the list of valid names
            if name not in GPU_HOURLY_USD:
                raise ValueError(
                    f"GPU {name!r} has no price in GPU_HOURLY_USD; "
                    "add one before fleeting it"
                )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not self.min_replicas <= self.initial_replicas <= self.max_replicas:
            raise ValueError("initial_replicas must lie in [min, max]")
        if self.scale_up_latency < 0 or self.warm_up_latency < 0:
            raise ValueError("provisioning latencies must be non-negative")
        if self.warm_pool < 0:
            raise ValueError("warm_pool must be non-negative")
        if self.sessions < 0:
            raise ValueError("sessions must be non-negative")
        if self.tpot_cap is not None and not self.tpot_cap > 0:
            raise ValueError(f"tpot_cap must be positive when given, not {self.tpot_cap!r}")
        if self.tenancy is not None:
            limited = [s.name for s in self.tenancy.tenants if s.rate_limit is not None]
            if limited:
                raise ValueError(
                    "fleet tenancy does not support token-bucket rate limits "
                    f"(tenants {limited} set rate_limit); enforce admission "
                    "control at the serving-engine level instead"
                )

    def gpu_for(self, replica_id: int) -> str:
        """Device type of replica ``replica_id`` (cycled for heterogeneity)."""
        return self.gpu_types[replica_id % len(self.gpu_types)]

    def serving_config(self, gpu_name: str) -> ServingConfig:
        return ServingConfig(
            num_gpus=self.gpus_per_replica,
            gpu=get_gpu_spec(gpu_name),
            block_tokens=self.block_tokens,
            batcher=self.batcher,
            tpot_cap=self.tpot_cap,
            fast_forward=self.fast_forward,
            prefix_caching=self.prefix_caching,
            observe=self.observe,
            tenancy=self.tenancy,
        )

    def session_of(self, request: Request) -> int:
        """Deterministic session id (affinity routing groups requests by it).

        A request that names its conversation (``Request.session``) keeps it;
        otherwise ids hash onto ``sessions`` buckets (or stay unique when no
        session count is configured).
        """
        if request.session is not None:
            return request.session
        if self.sessions <= 0:
            return request.request_id
        return request.request_id % self.sessions


class _ReplicaState(Enum):
    PROVISIONING = "provisioning"
    ACTIVE = "active"
    FAILED = "failed"
    RETIRED = "retired"


class _Replica:
    """One fleet member: a serving pool plus lifecycle bookkeeping."""

    def __init__(
        self,
        replica_id: int,
        model: ModelConfig,
        config: FleetConfig,
        cap: _IterationCap,
    ):
        self.replica_id = replica_id
        self.gpu_name = config.gpu_for(replica_id)
        self.model = model
        self.fleet_config = config
        self.serving_config = config.serving_config(self.gpu_name)
        # Iteration statistics span every pool incarnation, and so do the
        # counters of ``pools`` (crashed ones included); the iteration cap
        # is the fleet's.
        self.stats = PoolStats()
        self._cap = cap
        self.pools: List[_Pool] = []
        self.pool: Optional[_Pool] = self._new_pool()
        self.state = _ReplicaState.PROVISIONING
        self.draining = False
        self.slowdown = 1.0
        self.slow_until = 0.0
        self.epoch = 0
        self.provisioned_at = 0.0
        self.retired_at: Optional[float] = None
        self.requests_served = 0

    def _new_pool(self) -> _Pool:
        pool = _Pool(self.model, self.fleet_config.gpus_per_replica, self.serving_config)
        # The batcher's events belong to this replica's track, not a pool
        # device index (inert when no recorder is configured).
        pool.batcher.obs_track = self.replica_id
        pool.stats = self.stats
        pool.cap = self._cap
        pool.iteration_event_first = True
        self.pools.append(pool)
        return pool

    # ------------------------------------------------------------------
    @property
    def accepts_work(self) -> bool:
        return (
            self.state in (_ReplicaState.ACTIVE, _ReplicaState.PROVISIONING)
            and not self.draining
        )

    @property
    def busy(self) -> bool:
        return self.pool is not None and self.pool.busy is not None

    @property
    def has_work(self) -> bool:
        return self.pool is not None and self.pool.batcher.has_work

    def outstanding_tokens(self) -> int:
        if self.pool is None:
            return 0
        batcher = self.pool.batcher
        total = 0
        for queue in (batcher.waiting, batcher.running):
            for state in queue:
                total += state.prefill_remaining
                total += max(0, state.request.output_tokens - state.decoded)
        return total

    def snapshot(self, request: Optional[Request] = None) -> ReplicaSnapshot:
        batcher = self.pool.batcher
        allocator = self.pool.allocator
        match = 0
        if request is not None and request.prefix and allocator.prefix_caching:
            match = allocator.match_prefix(
                prefix_block_keys(request.prefix, allocator.block_tokens)
            )
        return ReplicaSnapshot(
            replica_id=self.replica_id,
            queue_depth=len(batcher.waiting),
            running_requests=len(batcher.running),
            outstanding_tokens=self.outstanding_tokens(),
            kv_free_fraction=allocator.free_blocks / allocator.total_blocks,
            gpu=self.gpu_name,
            prefix_match_blocks=match,
            tenant_queue_depths=batcher.tenant_queue_depths(),
        )

    # ------------------------------------------------------------------
    def fail_over(self, now: float) -> List[RequestState]:
        """Crash at ``now``: surrender every queued and running request, drop the pool.

        The in-flight iteration is aborted first (:meth:`_Pool.abort`), so
        the requeue accounting keeps the fleet-wide conservation law exact.
        """
        self.pool.abort(now)
        batcher = self.pool.batcher
        for state in batcher.running:
            batcher.tokens_preempted_requeued += state.prefill_remaining
        lost = list(batcher.running) + list(batcher.waiting)
        self.pool = None
        self.epoch += 1
        self.state = _ReplicaState.FAILED
        self.draining = False
        return lost

    def recover(self) -> None:
        """Restart after a crash with a fresh (empty) pool."""
        self.pool = self._new_pool()
        self.state = _ReplicaState.ACTIVE
        self.slowdown = 1.0
        self.slow_until = 0.0  # a restart replaces the degraded machine

    def gpu_seconds(self, end_time: float) -> float:
        end = self.retired_at if self.retired_at is not None else end_time
        return max(0.0, end - self.provisioned_at) * self.fleet_config.gpus_per_replica


@dataclass
class FleetStats:
    """Cluster-level outcomes of one fleet run (latency lives in the metrics)."""

    router: str
    replicas_provisioned: int
    replicas_peak: int
    replicas_final: int
    scale_up_events: int
    scale_down_events: int
    crashes: int
    slow_events: int
    rerouted_requests: int
    gpu_hours: float
    gpu_hours_by_type: Dict[str, float]
    cost_usd: float

    def to_rows(self) -> List[tuple]:
        by_type = ", ".join(
            f"{name} {hours:.2f} h" for name, hours in sorted(self.gpu_hours_by_type.items())
        )
        return [
            ("router", self.router),
            (
                "replicas provisioned / peak / final",
                f"{self.replicas_provisioned} / {self.replicas_peak} / {self.replicas_final}",
            ),
            ("scale-ups / scale-downs", f"{self.scale_up_events} / {self.scale_down_events}"),
            ("crashes / slow windows", f"{self.crashes} / {self.slow_events}"),
            ("requests rerouted by failover", f"{self.rerouted_requests}"),
            ("GPU-hours", f"{self.gpu_hours:.2f} ({by_type})"),
            ("fleet cost", f"${self.cost_usd:.2f}"),
        ]

    def to_text(self, title: str = "fleet") -> str:
        return render_table(["metric", "value"], self.to_rows(), title=title)


@dataclass(kw_only=True)
class FleetResult(PoolCounters):
    """Everything one simulated fleet run produced.

    The counters sum over every pool incarnation, crashed ones included.
    """

    metrics: ServingMetrics
    fleet: FleetStats
    records: List[RequestRecord]
    iterations: int
    #: ``False`` when the run kept no records
    #: (``FleetConfig.retain_records=False``): ``records`` is empty and the
    #: percentiles are P²-sketched.
    retain_records: bool = True
    #: Per-tenant aggregates, keyed by tenant name (empty when the trace
    #: carried no tenant tags).
    tenant_metrics: Dict[str, TenantMetrics] = field(default_factory=dict)

    def to_text(self, title: str = "fleet run") -> str:
        return self.metrics.to_text(title=title) + self.fleet.to_text(title=f"{title} — fleet")


# Global event kinds, in deliberate alphabetical-free order: ties at one
# timestamp resolve by insertion sequence, never by kind.
_ARRIVAL = "arrival"
_PROVISION = "provision"
_FAIL = "fail"
_RECOVER = "recover"
_SLOW_END = "slow-end"
_SCALE = "scale"


class FleetEngine:
    """Cluster-scale discrete-event loop over many serving pools."""

    def __init__(
        self,
        model: ModelConfig,
        config: Optional[FleetConfig] = None,
        router: Union[str, Router] = "round-robin",
        failure_plan: Optional[FailurePlan] = None,
    ):
        self.model = model
        self.config = config or FleetConfig()
        self.router = get_router(router) if isinstance(router, str) else router
        self.failure_plan = failure_plan or FailurePlan()

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, payload: object = None) -> None:
        """Queue a global event; ``_seq`` counts the pushes so far (arrivals aside)."""
        self._seq += 1
        heapq.heappush(self._events, (time, self._seq, kind, payload))

    def _new_replica(self, now: float, delay: float) -> _Replica:
        replica = _Replica(len(self._replicas), self.model, self.config, self._cap)
        replica.provisioned_at = now
        self._replicas.append(replica)
        obs = self._obs
        if obs is not None:
            obs.register_track(
                replica.replica_id,
                f"replica {replica.replica_id} ({replica.gpu_name})",
            )
            obs.emit(
                now, obs_events.PROVISION, replica.replica_id, None, (delay,)
            )
        if delay <= 0:
            replica.state = _ReplicaState.ACTIVE
            if obs is not None:
                obs.emit(now, obs_events.ACTIVATE, replica.replica_id)
        else:
            self._push(now + delay, _PROVISION, replica.replica_id)
        return replica

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, state: RequestState, now: float) -> None:
        candidates = [r for r in self._replicas if r.accepts_work]
        if not candidates:
            if self._obs is not None:
                self._obs.emit(
                    now, obs_events.HELD, obs_events.CLUSTER_TRACK,
                    state.request.request_id,
                )
            self._held.append(state)
            return
        snapshots = [r.snapshot(state.request) for r in candidates]
        session = self.config.session_of(state.request)
        choice = self.router.route(state.request, session, snapshots)
        by_id = {r.replica_id: r for r in candidates}
        if choice not in by_id:
            raise ValueError(
                f"router {self.router.name!r} picked replica {choice}, "
                f"not among the offered {sorted(by_id)}"
            )
        replica = by_id[choice]
        if self._obs is not None:
            snap = snapshots[candidates.index(replica)]
            self._obs.emit(
                now, obs_events.ROUTE, choice, state.request.request_id,
                (snap.queue_depth, snap.prefix_match_blocks),
            )
        state.pool_arrival = now
        replica.pool.batcher.enqueue(state)
        replica.pool.truncate_stretch()
        self._kick(replica, now)

    def _flush_held(self, now: float) -> None:
        if not self._held:
            return
        held, self._held = self._held, []
        for state in held:
            self._route(state, now)

    # ------------------------------------------------------------------
    # Per-replica continuous batching
    # ------------------------------------------------------------------
    def _kick(self, replica: _Replica, now: float, horizon: float = -math.inf) -> None:
        """Start the next iteration on an idle, active replica with work.

        ``horizon`` is the head of the global queue when the caller is a
        completion.  Global handlers leave it at ``-inf``: they may still
        push global events after the kick, so no stretch step may fold
        there (none would anyway — a routed request waits, which bars a
        stretch).
        """
        if replica.state is not _ReplicaState.ACTIVE or replica.busy:
            return
        pool = replica.pool
        if not pool.batcher.has_work:
            if replica.draining:
                self._retire(replica, now)
            return
        end = pool.start(now, horizon, slowdown=replica.slowdown)
        if end is None:
            raise RuntimeError(
                f"replica {replica.replica_id} stalled with queued work "
                "and no runnable batch"
            )
        # The entry carries the global push count, so a global event at the
        # same timestamp goes first exactly when it was queued first; among
        # completions the replica id breaks the remaining ties.
        heapq.heappush(self._completions, (end, self._seq, replica.replica_id, replica.epoch))

    def _complete_iteration(self, replica: _Replica, now: float, horizon: float) -> None:
        departed = replica.pool.complete(now)
        replica.requests_served += len(departed)
        self._finished += len(departed)
        for state in departed:
            self._metrics.observe(state.record)
        if replica.draining and not replica.has_work:
            self._retire(replica, now)
        else:
            self._kick(replica, now, horizon)

    def _retire(self, replica: _Replica, now: float) -> None:
        # The pool (and its counters) stays readable; only crashes fold it.
        replica.state = _ReplicaState.RETIRED
        replica.draining = False
        replica.retired_at = now
        if self._obs is not None:
            self._obs.emit(now, obs_events.RETIRE, replica.replica_id)

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def _provisioned(self) -> List[_Replica]:
        return [r for r in self._replicas if r.accepts_work]

    def _on_scale(self, now: float) -> None:
        cfg = self.config
        interval = cfg.autoscaler.interval
        instantaneous = self._arrivals_since_tick / interval
        self._arrivals_since_tick = 0
        alpha = cfg.autoscaler.ewma_alpha
        if self._rate_ewma is None:
            self._rate_ewma = instantaneous
        else:
            self._rate_ewma = alpha * instantaneous + (1 - alpha) * self._rate_ewma
        provisioned = self._provisioned()
        active = sum(1 for r in provisioned if r.state is _ReplicaState.ACTIVE)
        hit_tokens = prefilled = 0
        if self.config.prefix_caching:
            for replica in self._replicas:
                for pool in replica.pools:
                    hit_tokens += pool.batcher.prefix_hit_tokens
                    prefilled += pool.batcher.tokens_prefilled
        required = hit_tokens + prefilled
        tenant_depths: Dict[str, int] = {}
        if self.config.tenancy is not None:
            for replica in provisioned:
                for tenant, depth in replica.pool.batcher.tenant_queue_depths():
                    tenant_depths[tenant] = tenant_depths.get(tenant, 0) + depth
            for state in self._held:
                tenant = state.request.tenant
                if tenant is not None:
                    tenant_depths[tenant] = tenant_depths.get(tenant, 0) + 1
        view = FleetView(
            now=now,
            active_replicas=active,
            provisioning_replicas=len(provisioned) - active,
            queue_depth=sum(len(r.pool.batcher.waiting) for r in provisioned)
            + len(self._held),
            running_requests=sum(len(r.pool.batcher.running) for r in provisioned),
            arrival_rate=self._rate_ewma,
            prefix_hit_rate=hit_tokens / required if required else 0.0,
            tenant_queue_depths=tuple(sorted(tenant_depths.items())),
        )
        target = max(cfg.min_replicas, min(cfg.max_replicas, self._autoscaler.desired(view)))
        current = len(provisioned)
        if self._obs is not None:
            self._obs.emit(
                now, obs_events.SCALE, obs_events.CLUSTER_TRACK, None,
                (current, target, view.queue_depth, self._rate_ewma),
            )
        if target > current:
            self._scale_up(target - current, now)
        elif target < current:
            self._scale_down(current - target, now)
        if self._finished < self._num_requests:
            self._push(now + interval, _SCALE)

    def _scale_up(self, count: int, now: float) -> None:
        self._scale_up_events += 1
        if self._obs is not None:
            self._obs.emit(
                now, obs_events.SCALE_UP, obs_events.CLUSTER_TRACK, None, (count,)
            )
        added = 0
        # Cheapest first: cancel drains, then spend the warm pool, then cold.
        for replica in self._replicas:
            if added >= count:
                break
            if replica.state is _ReplicaState.ACTIVE and replica.draining:
                replica.draining = False
                added += 1
        while added < count:
            if self._warm_remaining > 0:
                self._warm_remaining -= 1
                self._new_replica(now, self.config.warm_up_latency)
            else:
                self._new_replica(now, self.config.scale_up_latency)
            added += 1
        self._flush_held(now)

    def _scale_down(self, count: int, now: float) -> None:
        self._scale_down_events += 1
        if self._obs is not None:
            self._obs.emit(
                now, obs_events.SCALE_DOWN, obs_events.CLUSTER_TRACK, None, (count,)
            )
        candidates = sorted(
            (r for r in self._provisioned() if r.state is _ReplicaState.ACTIVE),
            key=lambda r: (r.outstanding_tokens(), -r.replica_id),
        )
        for replica in candidates[:count]:
            replica.draining = True
            if not replica.has_work and not replica.busy:
                self._retire(replica, now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def _on_fail(self, event, now: float) -> None:
        candidates = sorted(
            (r for r in self._replicas if r.state is _ReplicaState.ACTIVE),
            key=lambda r: r.replica_id,
        )
        if not candidates:
            return  # nothing alive to kill; the event is dropped
        victim = candidates[event.replica_index % len(candidates)]
        if event.kind == "slow":
            self._slow_events += 1
            if self._obs is not None:
                self._obs.emit(
                    now, obs_events.SLOW, victim.replica_id, None,
                    (event.slowdown, event.duration),
                )
            victim.slowdown = max(victim.slowdown, event.slowdown)
            # Overlapping windows extend the degradation; only the _SLOW_END
            # at (or past) the high-water mark ends it.
            victim.slow_until = max(victim.slow_until, now + event.duration)
            self._push(now + event.duration, _SLOW_END, victim.replica_id)
            return
        self._crashes += 1
        lost = victim.fail_over(now)
        if self._obs is not None:
            self._obs.emit(
                now, obs_events.CRASH, victim.replica_id, None, (len(lost),)
            )
        self._push(now + event.duration, _RECOVER, victim.replica_id)
        for state in lost:
            self._rerouted += 1
            self._route(
                RequestState(
                    record=state.record,
                    prefill_target=state.context_tokens,
                    decoded=state.decoded,
                    pool_arrival=now,
                ),
                now,
            )

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def _push_next_arrival(self) -> None:
        """Pull the next request from the trace into the global queue.

        The arrival carries sequence number 0 and is not counted in
        ``_seq``: it is the only arrival queued, and it goes before every
        global event and completion at its timestamp.
        """
        request = next(self._arrival_stream, None)
        if request is None:
            # Exhausted: the run completes when every pushed arrival finishes.
            self._num_requests = self._pushed_arrivals
            return
        arrival = request.arrival_time
        if arrival < self._last_arrival:
            raise ValueError(
                "streaming fleet traces must be sorted by arrival_time "
                f"(request {request.request_id!r} arrives at {arrival!r} "
                f"after {self._last_arrival!r})"
            )
        self._last_arrival = arrival
        if self._pushed_arrivals == 0:
            self._first_arrival = arrival
        self._pushed_arrivals += 1
        heapq.heappush(self._events, (arrival, 0, _ARRIVAL, request))

    def run(self, trace: Iterable[Request], slo: Optional[SLO] = None) -> FleetResult:
        slo = slo or SLO()
        cfg = self.config
        retain = cfg.retain_records
        if retain and not isinstance(trace, Sequence):
            trace = list(trace)
        records: Dict[object, RequestRecord] = {}
        if isinstance(trace, Sequence):
            # A trace in memory is checked and sorted here; an iterable must
            # arrive sorted, and skips the duplicate-id check (O(trace) memory).
            if len({request.request_id for request in trace}) != len(trace):
                raise ValueError("trace carries duplicate request ids")
            if retain:
                records = {request.request_id: RequestRecord(request) for request in trace}
            trace = sorted(trace, key=lambda r: (r.arrival_time, r.request_id))

        self._events: List[tuple] = []
        self._completions: List[tuple] = []
        self._seq = 0
        self._replicas: List[_Replica] = []
        self._held: List[RequestState] = []
        self._finished = 0
        self._cap = _IterationCap(cfg.max_total_iterations, "fleet")
        self._rerouted = 0
        self._crashes = 0
        self._slow_events = 0
        self._scale_up_events = 0
        self._scale_down_events = 0
        self._warm_remaining = cfg.warm_pool
        self._arrivals_since_tick = 0
        self._rate_ewma: Optional[float] = None
        self._autoscaler: Autoscaler = make_autoscaler(cfg.autoscaler)
        self._obs: Optional[EventRecorder] = cfg.observe
        self._metrics: StreamingMetrics = _metrics_fold(
            slo, cfg.tenancy, cfg.retain_records
        )
        self._arrival_stream: Iterator[Request] = iter(trace)
        self._pushed_arrivals = 0
        self._last_arrival = float("-inf")
        self._first_arrival = 0.0

        for _ in range(cfg.initial_replicas):
            self._new_replica(0.0, 0.0)

        # Lazy arrivals: exactly one future arrival sits in the queue;
        # popping it pulls the next from the trace.  Until the trace
        # exhausts, the total is unknown — ``inf`` keeps every "more work
        # coming" condition true; exhaustion pins it to the pushed count.
        self._num_requests = float("inf")
        self._push_next_arrival()
        if self._pushed_arrivals == 0:
            raise ValueError("fleet run needs a non-empty trace")
        for event in self.failure_plan.events:
            self._push(event.time, _FAIL, event)
        if cfg.autoscaler.policy != "none":
            self._push(cfg.autoscaler.interval, _SCALE)

        events = self._events
        completions = self._completions
        now = 0.0
        end_time = 0.0
        while events or completions:
            if completions:
                head = completions[0]
                if not events:
                    horizon = math.inf
                else:
                    horizon = events[0][0]
                    if horizon < head[0] or (horizon == head[0] and events[0][1] <= head[1]):
                        head = None  # the global event goes first
                if head is not None:
                    now, _, replica_id, epoch = heapq.heappop(completions)
                    replica = self._replicas[replica_id]
                    if replica.epoch == epoch and replica.busy:
                        # (otherwise the replica crashed while this ran)
                        self._complete_iteration(replica, now, horizon)
                        if self._finished >= self._num_requests:
                            end_time = now
                            break
                    continue
            time, _, kind, payload = heapq.heappop(events)
            now = time
            if kind == _ARRIVAL:
                self._arrivals_since_tick += 1
                if self._obs is not None:
                    self._obs.emit(
                        now, obs_events.ARRIVE, obs_events.CLUSTER_TRACK,
                        payload.request_id,
                    )
                record = records[payload.request_id] if retain else RequestRecord(payload)
                self._push_next_arrival()
                self._route(RequestState(record=record), now)
            elif kind == _PROVISION:
                replica = self._replicas[payload]
                if replica.state is _ReplicaState.PROVISIONING:
                    replica.state = _ReplicaState.ACTIVE
                    if self._obs is not None:
                        self._obs.emit(now, obs_events.ACTIVATE, replica.replica_id)
                    self._flush_held(now)
                    self._kick(replica, now)
            elif kind == _FAIL:
                if self._finished < self._num_requests:
                    self._on_fail(payload, now)
            elif kind == _RECOVER:
                replica = self._replicas[payload]
                if replica.state is _ReplicaState.FAILED:
                    replica.recover()
                    if self._obs is not None:
                        self._obs.emit(now, obs_events.RECOVER, replica.replica_id)
                    self._flush_held(now)
                    self._kick(replica, now)
            elif kind == _SLOW_END:
                replica = self._replicas[payload]
                if now >= replica.slow_until - 1e-12:
                    replica.slowdown = 1.0
                    if self._obs is not None:
                        self._obs.emit(now, obs_events.SLOW_END, replica.replica_id)
            elif kind == _SCALE:
                if self._finished < self._num_requests:
                    self._on_scale(now)
            if self._finished >= self._num_requests:
                end_time = now
                break
        else:
            end_time = now

        if self._finished < self._num_requests:
            raise RuntimeError(
                f"fleet drained its event queues with "
                f"{self._num_requests - self._finished} requests unfinished"
            )
        return self._collect(list(records.values()), end_time)

    # ------------------------------------------------------------------
    def _collect(self, records: List[RequestRecord], end_time: float) -> FleetResult:
        duration = max(end_time - self._first_arrival, 1e-12)
        busy = sum(r.stats.busy_time for r in self._replicas)
        kv_mean = (
            sum(r.stats.kv_weighted for r in self._replicas) / busy if busy > 0 else 0.0
        )
        counters = PoolCounters()
        for replica in self._replicas:
            counters.add(PoolCounters.of(replica.pools))
        metrics = counters.finalize(
            self._metrics,
            duration,
            kv_mean,
            max((r.stats.kv_peak for r in self._replicas), default=0.0),
        )
        hours_by_type: Dict[str, float] = {}
        for replica in self._replicas:
            hours = replica.gpu_seconds(end_time) / 3600.0
            hours_by_type[replica.gpu_name] = hours_by_type.get(replica.gpu_name, 0.0) + hours
        gpu_hours = sum(hours_by_type.values())
        cost = sum(GPU_HOURLY_USD[name] * hours for name, hours in hours_by_type.items())
        peak = 0
        provisioned_now = 0
        # Peak concurrency is the high-water mark of provisioned-and-not-yet-
        # retired replicas over the replica timeline (provision/retire pairs).
        events = []
        for replica in self._replicas:
            events.append((replica.provisioned_at, 1, replica.replica_id))
            if replica.retired_at is not None:
                events.append((replica.retired_at, -1, replica.replica_id))
        for _, delta, _ in sorted(events):
            provisioned_now += delta
            peak = max(peak, provisioned_now)
        stats = FleetStats(
            router=self.router.name,
            replicas_provisioned=len(self._replicas),
            replicas_peak=peak,
            replicas_final=sum(
                1
                for r in self._replicas
                if r.state in (_ReplicaState.ACTIVE, _ReplicaState.PROVISIONING)
            ),
            scale_up_events=self._scale_up_events,
            scale_down_events=self._scale_down_events,
            crashes=self._crashes,
            slow_events=self._slow_events,
            rerouted_requests=self._rerouted,
            gpu_hours=gpu_hours,
            gpu_hours_by_type=hours_by_type,
            cost_usd=cost,
        )
        return FleetResult(
            metrics=metrics,
            fleet=stats,
            records=records,
            iterations=self._cap.count,
            retain_records=self.config.retain_records,
            tenant_metrics=self._metrics.tenant_metrics(duration),
            **vars(counters),
        )
