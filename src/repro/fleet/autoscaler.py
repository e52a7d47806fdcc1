"""Autoscaling policies for the fleet layer.

The autoscaler is evaluated on a fixed tick (``AutoscalerConfig.interval``)
and returns the fleet size it *wants*; the cluster clamps the answer to
``[min_replicas, max_replicas]`` and pays the provisioning latency — warm-pool
replicas come up in ``warm_up_latency`` seconds, cold replicas in
``scale_up_latency`` — so a policy's value shows up as *how early* it asks,
not how loudly.  Two families are modelled:

``queue-depth`` (reactive)
    Scale on the observed backlog: when the waiting queue per active replica
    crosses ``scale_up_queue`` add ``step`` replicas, when it falls below
    ``scale_down_queue`` retire one.  A ``cooldown`` suppresses flapping.
    Reacts only after latency has already been damaged — the classic
    reactive-autoscaler failure mode under thundering herds.
``arrival-rate`` (predictive)
    Track an EWMA of the request arrival rate and provision
    ``ceil(rate * headroom / replica_rps)`` replicas, where ``replica_rps``
    is the operator's estimate of one replica's sustainable throughput.
    Scales *before* the queue builds when traffic ramps, at the cost of
    trusting the capacity estimate.  When the fleet reports a shared-prefix
    hit rate (``FleetView.prefix_hit_rate``), the per-replica capacity
    estimate is scaled by the **effective-capacity gain**
    ``1 / (1 - hit_rate)``: prefill work served from the prefix cache frees
    replica time for more requests, so the same SLO needs fewer replicas.
    With a zero hit rate (prefix caching off, or no shared traffic) the
    policy is exactly the pre-prefix one.

``none`` pins the fleet at its initial size (the capacity planner uses this
to evaluate fixed fleets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

from ..constants import UnknownNameError

__all__ = [
    "AutoscalerConfig",
    "FleetView",
    "Autoscaler",
    "FixedAutoscaler",
    "QueueDepthAutoscaler",
    "ArrivalRateAutoscaler",
    "AUTOSCALER_REGISTRY",
    "available_autoscalers",
    "make_autoscaler",
]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Static knobs shared by every autoscaling policy."""

    policy: str = "none"
    interval: float = 5.0
    scale_up_queue: float = 4.0
    scale_down_queue: float = 0.5
    step: int = 1
    cooldown: float = 20.0
    replica_rps: float = 1.0
    headroom: float = 1.2
    ewma_alpha: float = 0.3

    def __post_init__(self) -> None:
        if self.policy not in AUTOSCALER_REGISTRY:
            raise UnknownNameError(
                f"unknown autoscaler policy {self.policy!r}; "
                f"available: {available_autoscalers()}"
            )
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.scale_down_queue >= self.scale_up_queue:
            raise ValueError("scale_down_queue must be below scale_up_queue")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.replica_rps <= 0:
            raise ValueError("replica_rps must be positive")
        if self.headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class FleetView:
    """The aggregate state an autoscaler tick observes."""

    now: float
    active_replicas: int
    provisioning_replicas: int
    queue_depth: int
    running_requests: int
    arrival_rate: float
    #: Fleet-wide fraction of required prompt tokens served from the shared
    #: prefix cache so far (0.0 when prefix caching is off).
    prefix_hit_rate: float = 0.0
    #: Fleet-wide waiting-queue depth per tagged tenant (summed over every
    #: provisioned replica plus the held queue), as name-sorted ``(tenant,
    #: depth)`` pairs.  Empty for anonymous workloads or when tenancy is off,
    #: so existing policies see exactly the view they saw before.
    tenant_queue_depths: Tuple[Tuple[str, int], ...] = ()

    @property
    def provisioned(self) -> int:
        """Replicas already paid for: active plus still-provisioning."""
        return self.active_replicas + self.provisioning_replicas


class Autoscaler:
    """Base policy: map a :class:`FleetView` to a desired fleet size."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config

    def desired(self, view: FleetView) -> int:
        raise NotImplementedError


class FixedAutoscaler(Autoscaler):
    """Never changes the fleet (the ``none`` policy)."""

    def desired(self, view: FleetView) -> int:
        return view.provisioned


class QueueDepthAutoscaler(Autoscaler):
    """Reactive: scale on waiting requests per provisioned replica."""

    def __init__(self, config: AutoscalerConfig):
        super().__init__(config)
        self._last_action = -math.inf

    def desired(self, view: FleetView) -> int:
        cfg = self.config
        if view.now - self._last_action < cfg.cooldown:
            return view.provisioned
        per_replica = view.queue_depth / max(1, view.provisioned)
        if per_replica > cfg.scale_up_queue:
            self._last_action = view.now
            return view.provisioned + cfg.step
        if per_replica < cfg.scale_down_queue:
            self._last_action = view.now
            return view.provisioned - 1
        return view.provisioned


class ArrivalRateAutoscaler(Autoscaler):
    """Predictive: provision for the EWMA arrival rate plus headroom.

    Prefix-cache aware: the observed fleet-wide hit rate inflates the
    per-replica capacity estimate (prefill skipped is replica time freed),
    capped at 10x so a near-perfect hit rate cannot collapse the fleet.
    """

    def desired(self, view: FleetView) -> int:
        cfg = self.config
        capacity = cfg.replica_rps
        if view.prefix_hit_rate > 0.0:
            capacity = cfg.replica_rps / max(1.0 - view.prefix_hit_rate, 0.1)
        target = math.ceil(view.arrival_rate * cfg.headroom / capacity)
        return max(1, target)


AUTOSCALER_REGISTRY: Dict[str, Type[Autoscaler]] = {
    "none": FixedAutoscaler,
    "queue-depth": QueueDepthAutoscaler,
    "arrival-rate": ArrivalRateAutoscaler,
}


def available_autoscalers() -> List[str]:
    return sorted(AUTOSCALER_REGISTRY)


def make_autoscaler(config: Optional[AutoscalerConfig] = None) -> Autoscaler:
    """Instantiate the policy named by ``config.policy`` (default: fixed)."""
    config = config or AutoscalerConfig()
    return AUTOSCALER_REGISTRY[config.policy](config)
