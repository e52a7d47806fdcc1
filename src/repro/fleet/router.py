"""Pluggable request routers for the fleet layer.

A router is the fleet's admission front door: every arriving request is
assigned to exactly one replica, based only on the *observable* state of the
healthy replicas (queue depth, outstanding tokens, free KV blocks) — never on
simulator internals a real load balancer could not see.  Routers are small
stateful objects resolved by name from :data:`ROUTER_REGISTRY`, mirroring the
model/scenario registries:

``round-robin``
    Cycle through the healthy replicas in id order.  Oblivious to load; the
    baseline every serving load-balancer paper compares against.
``least-tokens``
    Join the replica with the fewest *outstanding tokens* (prefill remaining
    plus decode remaining over its queued and running requests) — the
    token-weighted analogue of least-outstanding-requests, which matters when
    one 512K prompt weighs as much as hundreds of chat requests.
``session-affinity``
    Sticky routing: a session's first request picks the least-loaded replica
    and later requests follow it (warm KV / prefix reuse in a real system).
    A session whose home replica fails or drains is re-homed.  When replicas
    report **prefix-hit potential** (shared-prefix caching on), a new
    session is placed where the most of its declared prefix is already
    cached before load is consulted.
``kv-aware``
    Join the replica with the largest free share of its paged-KV pool,
    breaking ties by outstanding tokens.  Long-context traffic is admitted
    where it will not trigger preemption storms.  Prefix-hit potential
    dominates when present: a replica that can serve the request's prompt
    head from its prefix cache beats a merely-empty one.

Prefix-hit potential (``ReplicaSnapshot.prefix_match_blocks``) is the number
of leading KV blocks of the arriving request's declared prefix already
resident on the replica — observable in real deployments via prefix-cache
lookup APIs.  It is zero whenever prefix caching is off or the request
declares no prefix, in which case every policy reduces exactly to its
pre-prefix behavior.

Every policy breaks remaining ties by replica id, so routing is a pure
function of (request order, snapshot history) and fleet runs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..constants import UnknownNameError
from ..serving.workload import Request

__all__ = [
    "ReplicaSnapshot",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "SessionAffinityRouter",
    "KVLoadAwareRouter",
    "ROUTER_REGISTRY",
    "available_routers",
    "get_router",
]


@dataclass(frozen=True, slots=True)
class ReplicaSnapshot:
    """What the router is allowed to observe about one healthy replica.

    Slotted: one snapshot per healthy replica is built for *every* arrival.
    """

    replica_id: int
    queue_depth: int
    running_requests: int
    outstanding_tokens: int
    kv_free_fraction: float
    gpu: str = "hopper-80gb"
    #: Leading blocks of the arriving request's declared prefix already
    #: cached on this replica (0 when prefix caching is off).
    prefix_match_blocks: int = 0
    #: Waiting-queue depth per tagged tenant, as name-sorted ``(tenant,
    #: depth)`` pairs — observable in real deployments via per-tenant queue
    #: gauges.  Empty for anonymous (untagged) workloads, so policies that
    #: ignore it behave exactly as before tenancy existed.
    tenant_queue_depths: Tuple[Tuple[str, int], ...] = ()


class Router:
    """Base class: route one request to one of the offered replicas.

    ``snapshots`` only ever contains replicas that accept new work; the
    cluster holds requests back (and re-offers them) when the list would be
    empty.  Implementations must be deterministic.
    """

    name = "base"

    def route(
        self, request: Request, session: int, snapshots: Sequence[ReplicaSnapshot]
    ) -> int:
        raise NotImplementedError

    def _require(self, snapshots: Sequence[ReplicaSnapshot]) -> None:
        if not snapshots:
            raise ValueError("route() offered no replicas; the cluster must hold")


class RoundRobinRouter(Router):
    """Cycle through healthy replicas in id order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def route(
        self, request: Request, session: int, snapshots: Sequence[ReplicaSnapshot]
    ) -> int:
        self._require(snapshots)
        ordered = sorted(snapshots, key=lambda s: s.replica_id)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice.replica_id


class LeastOutstandingTokensRouter(Router):
    """Join the replica with the fewest outstanding (queued + running) tokens."""

    name = "least-tokens"

    def route(
        self, request: Request, session: int, snapshots: Sequence[ReplicaSnapshot]
    ) -> int:
        self._require(snapshots)
        return min(
            snapshots,
            key=lambda s: (s.outstanding_tokens, s.queue_depth, s.replica_id),
        ).replica_id


class SessionAffinityRouter(Router):
    """Sticky session routing with least-tokens placement of new sessions."""

    name = "session-affinity"

    def __init__(self) -> None:
        self._homes: Dict[int, int] = {}

    def route(
        self, request: Request, session: int, snapshots: Sequence[ReplicaSnapshot]
    ) -> int:
        self._require(snapshots)
        alive = {s.replica_id for s in snapshots}
        home = self._homes.get(session)
        if home is not None and home in alive:
            return home
        placed = min(
            snapshots,
            key=lambda s: (
                -s.prefix_match_blocks,
                s.outstanding_tokens,
                s.queue_depth,
                s.replica_id,
            ),
        ).replica_id
        self._homes[session] = placed
        return placed


class KVLoadAwareRouter(Router):
    """Join the replica with the best prefix-hit potential, then most free KV."""

    name = "kv-aware"

    def route(
        self, request: Request, session: int, snapshots: Sequence[ReplicaSnapshot]
    ) -> int:
        self._require(snapshots)
        return min(
            snapshots,
            key=lambda s: (
                -s.prefix_match_blocks,
                -s.kv_free_fraction,
                s.outstanding_tokens,
                s.replica_id,
            ),
        ).replica_id


ROUTER_REGISTRY: Dict[str, Callable[[], Router]] = {
    RoundRobinRouter.name: RoundRobinRouter,
    LeastOutstandingTokensRouter.name: LeastOutstandingTokensRouter,
    SessionAffinityRouter.name: SessionAffinityRouter,
    KVLoadAwareRouter.name: KVLoadAwareRouter,
}


def available_routers() -> List[str]:
    return sorted(ROUTER_REGISTRY)


def get_router(name: str) -> Router:
    """Instantiate a router policy by name, listing valid names on a miss."""
    try:
        return ROUTER_REGISTRY[name]()
    except KeyError:
        raise UnknownNameError(
            f"unknown router {name!r}; available: {available_routers()}"
        ) from None
