"""Multi-tenant QoS: SLO classes, token-bucket admission, tenant configs.

All traffic used to be one anonymous stream; this module gives requests an
owner.  A :class:`TenancyConfig` maps tenant names to :class:`TenantSpec`
records, each carrying

* an **SLO class** (:data:`SLO_CLASS_REGISTRY`: ``interactive`` / ``batch``
  / ``best-effort``) that bundles the tenant's latency targets with a
  *preemption cost* — when the batcher must evict a running request to free
  KV blocks, it prefers victims from cheap-to-preempt classes;
* a **fair-share weight** used by the virtual-token-counter fair scheduler
  in :mod:`repro.serving.batcher` (``policy="fair"``): tenants accrue
  virtual time proportional to ``served_tokens / weight``, so a weight-2
  tenant is entitled to twice the token throughput of a weight-1 tenant
  under contention;
* an optional **token bucket** rate limit — admission control that bounds a
  tenant's sustained token throughput to ``refill_rate`` tokens/second with
  bursts up to ``capacity`` tokens.

Everything here is opt-in: a request with ``tenant=None`` (the default) or
an engine with ``tenancy=None`` behaves byte-identically to a build without
this module — the property suite in ``tests/test_tenancy_properties.py``
pins that down with digest equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..constants import UnknownNameError
from .metrics import SLO

__all__ = [
    "SLOClass",
    "SLO_CLASS_REGISTRY",
    "get_slo_class",
    "TokenBucket",
    "TenantSpec",
    "TenancyConfig",
]


@dataclass(frozen=True, slots=True)
class SLOClass:
    """A named service tier: latency targets plus a preemption cost.

    ``preemption_cost`` orders eviction victims: the batcher preempts the
    *lowest*-cost running request first, so ``best-effort`` (cost 0) work is
    sacrificed before ``batch`` (cost 1), and ``interactive`` (cost 2) is
    evicted only when nothing cheaper is running.  Untenanted requests carry
    an implicit cost of 0, preserving the historical victim order.
    """

    name: str
    slo: SLO
    preemption_cost: int

    def __post_init__(self) -> None:
        if self.preemption_cost < 0:
            raise ValueError("preemption_cost must be non-negative")


SLO_CLASS_REGISTRY: Dict[str, SLOClass] = {
    "interactive": SLOClass("interactive", SLO(ttft=2.0, tpot=0.1), preemption_cost=2),
    "batch": SLOClass("batch", SLO(ttft=30.0, tpot=0.5), preemption_cost=1),
    "best-effort": SLOClass("best-effort", SLO(ttft=120.0, tpot=1.0), preemption_cost=0),
}


def get_slo_class(name: str) -> SLOClass:
    """Look up an SLO class by name; unknown names list the valid set."""
    try:
        return SLO_CLASS_REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown SLO class {name!r}; available: {sorted(SLO_CLASS_REGISTRY)}"
        ) from None


@dataclass(slots=True)
class TokenBucket:
    """Continuous-refill token bucket (tokens of LLM work, not API calls).

    The bucket holds at most ``capacity`` tokens and refills at
    ``refill_rate`` tokens/second.  :meth:`admit` charges a request's total
    token footprint if the bucket currently holds at least that many tokens
    (refilled lazily to the query time); otherwise it leaves the bucket
    untouched and reports when enough tokens will have accrued.

    The never-over-admit invariant — total tokens granted over any window
    ``[0, T]`` is at most ``capacity + refill_rate * T`` — holds because the
    balance starts at ``capacity``, only :meth:`admit` withdraws, and the
    refill between two queries is exactly ``refill_rate * dt`` capped at the
    brim.  ``tests/test_tenancy_properties.py`` checks it with hypothesis.
    """

    capacity: float
    refill_rate: float
    tokens: float = field(init=False)
    _last_refill: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("token bucket capacity must be positive")
        if self.refill_rate <= 0:
            raise ValueError("token bucket refill_rate must be positive")
        self.tokens = self.capacity

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(self.capacity, self.tokens + self.refill_rate * (now - self._last_refill))
            self._last_refill = now

    def admit(self, now: float, tokens: int) -> bool:
        """Charge ``tokens`` if available at time ``now``; True on success."""
        self._refill(now)
        # A request larger than the bucket itself is charged whenever the
        # bucket is full — otherwise it could never be admitted at all.  The
        # balance then goes negative (debt), so the over-admit bound still
        # holds: the debt must refill before the next grant.
        need = min(float(tokens), self.capacity)
        if self.tokens + 1e-9 >= need:
            self.tokens -= float(tokens)
            return True
        return False

    def ready_time(self, now: float, tokens: int) -> float:
        """Earliest time at which ``admit(t, tokens)`` could succeed."""
        self._refill(now)
        need = min(float(tokens), self.capacity)
        if self.tokens + 1e-9 >= need:
            return now
        return now + (need - self.tokens) / self.refill_rate


@dataclass(frozen=True, slots=True)
class TenantSpec:
    """One tenant's QoS contract.

    ``weight`` scales the tenant's fair share (virtual time advances as
    ``tokens / weight``).  ``rate_limit`` / ``burst_tokens`` configure an
    optional token bucket; both ``None`` means unlimited admission.
    """

    name: str
    slo_class: SLOClass = SLO_CLASS_REGISTRY["interactive"]
    weight: float = 1.0
    rate_limit: Optional[float] = None
    burst_tokens: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive when set")
        if self.burst_tokens is not None and self.burst_tokens <= 0:
            raise ValueError("burst_tokens must be positive when set")

    def make_bucket(self) -> Optional[TokenBucket]:
        if self.rate_limit is None:
            return None
        burst = self.burst_tokens if self.burst_tokens is not None else self.rate_limit
        return TokenBucket(capacity=burst, refill_rate=self.rate_limit)


@dataclass(frozen=True)
class TenancyConfig:
    """The full tenant table an engine (or fleet) runs under.

    Frozen and hashable by its tenant tuple so it can ride inside the frozen
    ``ServingConfig``/``ServingScenario`` dataclasses.  Lookups for tenants
    that requests name but the table does not raise
    :class:`~repro.constants.UnknownNameError` listing the valid names —
    the same contract the model/scenario registries follow.
    """

    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")

    @staticmethod
    def of(*specs: TenantSpec) -> "TenancyConfig":
        return TenancyConfig(tenants=tuple(specs))

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.tenants)

    def get_tenant(self, name: str) -> TenantSpec:
        for spec in self.tenants:
            if spec.name == name:
                return spec
        raise UnknownNameError(
            f"unknown tenant {name!r}; available: {sorted(self.names)}"
        )

    def spec_for(self, tenant: Optional[str]) -> Optional[TenantSpec]:
        """Spec for a request's tenant tag; ``None`` tag → no contract."""
        if tenant is None:
            return None
        return self.get_tenant(tenant)

    def weight_for(self, tenant: Optional[str]) -> float:
        spec = self.spec_for(tenant)
        return 1.0 if spec is None else spec.weight

    def preemption_cost_for(self, tenant: Optional[str]) -> int:
        spec = self.spec_for(tenant)
        return 0 if spec is None else spec.slo_class.preemption_cost

    def slo_map(self) -> Dict[str, SLO]:
        """Tenant name → that tenant's SLO-class latency targets."""
        return {spec.name: spec.slo_class.slo for spec in self.tenants}

    def make_buckets(self) -> Dict[str, TokenBucket]:
        """Fresh per-tenant token buckets for one engine run."""
        buckets: Dict[str, TokenBucket] = {}
        for spec in self.tenants:
            bucket = spec.make_bucket()
            if bucket is not None:
                buckets[spec.name] = bucket
        return buckets
