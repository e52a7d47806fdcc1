"""Serving-side latency and goodput metrics.

Per-request latencies follow the standard serving decomposition:

* **TTFT** (time to first token) — from arrival to the end of the iteration
  that completes the request's prefill (which also samples its first output
  token);
* **TPOT** (time per output token) — the mean inter-token gap over the
  decode phase, ``(finish - first_token) / (output_tokens - 1)``;
* **E2E** — arrival to final token.

**Goodput** is the throughput of requests that meet the scenario's
:class:`SLO` (both the TTFT and TPOT bounds), the quantity
prefill/decode-disaggregation papers optimise for instead of raw throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..analysis.report import format_percent, render_table
from ..obs.sketch import QuantileSketch, interpolate
from .workload import Request

__all__ = [
    "SLO",
    "RequestRecord",
    "ServingMetrics",
    "TenantMetrics",
    "PercentileSummary",
    "StreamingMetrics",
    "percentile",
    "compute_metrics",
    "tenant_report_text",
]


class PercentileSummary:
    """Exact percentile reader: keeps every sample and sorts once per read burst.

    ``PercentileSummary(values)`` summarises a collected sample (an empty
    one is an error); ``PercentileSummary()`` starts empty and grows with
    :meth:`add` — the exact backend of :class:`StreamingMetrics`.  Reads
    interpolate with :func:`~repro.obs.sketch.interpolate`, so the result
    does not depend on the order samples were added in.
    """

    __slots__ = ("_ordered", "_sorted")

    def __init__(self, values: Optional[Sequence[float]] = None, metric: Optional[str] = None):
        if values is not None and not values:
            name = metric or "sample"
            raise ValueError(
                f"cannot summarise {name}: no samples were collected "
                "(did any request finish?)"
            )
        self._ordered: List[float] = sorted(values) if values is not None else []
        self._sorted = True

    def add(self, value: float) -> None:
        self._ordered.append(value)
        self._sorted = False

    def _sort(self) -> List[float]:
        if not self._sorted:
            self._ordered.sort()
            self._sorted = True
        return self._ordered

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile (``q`` in [0, 1]) of the sample."""
        return interpolate(self._sort(), q)

    def at(self, q: float) -> float:
        """Linear-interpolation percentile (``q`` in [0, 100]) of the sample."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        return self.quantile(q / 100.0)

    @property
    def count(self) -> int:
        """Number of samples behind the summary."""
        return len(self._ordered)

    @property
    def max(self) -> float:
        """Largest observed sample (the p100 read, without interpolating)."""
        return self._sort()[-1]


def percentile(values: Sequence[float], q: float, metric: Optional[str] = None) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    ``metric`` names the quantity in the empty-sample error message.
    """
    return PercentileSummary(values, metric=metric).at(q)


@dataclass(frozen=True)
class SLO:
    """Latency service-level objective a request must meet to count as good."""

    ttft: float = 2.0
    tpot: float = 0.1

    def __post_init__(self) -> None:
        if self.ttft <= 0 or self.tpot <= 0:
            raise ValueError("SLO bounds must be positive")


@dataclass(slots=True, eq=False)
class RequestRecord:
    """Lifecycle timestamps of one served request.

    A hot object (one per request, touched every iteration); ``slots`` keeps
    it compact and ``eq=False`` keeps identity comparison, which is what the
    schedulers mean when they look records up.
    """

    request: Request
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0
    #: Prompt tokens served from the shared-prefix KV cache, summed over
    #: every (re-)admission of the request.
    prefix_cached_tokens: int = 0

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def ttft(self) -> float:
        if self.first_token_time is None:
            raise ValueError(f"request {self.request.request_id} produced no token")
        return self.first_token_time - self.request.arrival_time

    @property
    def tpot(self) -> float:
        if self.finish_time is None or self.first_token_time is None:
            raise ValueError(f"request {self.request.request_id} did not finish")
        decode_tokens = self.request.output_tokens - 1
        if decode_tokens <= 0:
            return 0.0
        return (self.finish_time - self.first_token_time) / decode_tokens

    @property
    def e2e_latency(self) -> float:
        if self.finish_time is None:
            raise ValueError(f"request {self.request.request_id} did not finish")
        return self.finish_time - self.request.arrival_time

    def meets(self, slo: SLO) -> bool:
        return self.finished and self.ttft <= slo.ttft and self.tpot <= slo.tpot


@dataclass
class ServingMetrics:
    """Aggregate serving metrics over one simulated run."""

    num_requests: int
    duration: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    e2e_p50: float
    e2e_p95: float
    e2e_p99: float
    output_tokens_per_second: float
    requests_per_second: float
    goodput_fraction: float
    goodput_rps: float
    kv_utilization_mean: float
    kv_utilization_peak: float
    preemptions: int
    slo: SLO = field(default_factory=SLO)
    #: Shared-prefix caching aggregates (zero when the feature is off).
    prefix_hit_rate: float = 0.0
    prefix_hit_tokens: int = 0
    prefix_flops_saved: float = 0.0
    prefix_evictions: int = 0

    def to_rows(self) -> List[tuple]:
        return [
            ("requests served", f"{self.num_requests}"),
            ("makespan", f"{self.duration:.2f} s"),
            ("TTFT p50 / p95 / p99", f"{self.ttft_p50:.3f} / {self.ttft_p95:.3f} / {self.ttft_p99:.3f} s"),
            ("TPOT p50 / p95 / p99", f"{self.tpot_p50 * 1e3:.1f} / {self.tpot_p95 * 1e3:.1f} / {self.tpot_p99 * 1e3:.1f} ms"),
            ("E2E p50 / p95 / p99", f"{self.e2e_p50:.2f} / {self.e2e_p95:.2f} / {self.e2e_p99:.2f} s"),
            ("output throughput", f"{self.output_tokens_per_second:.0f} tok/s"),
            ("request throughput", f"{self.requests_per_second:.2f} req/s"),
            (
                f"goodput (TTFT<={self.slo.ttft:g}s, TPOT<={self.slo.tpot * 1e3:g}ms)",
                f"{self.goodput_rps:.2f} req/s ({format_percent(self.goodput_fraction)})",
            ),
            ("KV-cache utilization mean / peak", f"{format_percent(self.kv_utilization_mean)} / {format_percent(self.kv_utilization_peak)}"),
            ("preemptions", f"{self.preemptions}"),
            (
                "prefix cache hit rate / saved",
                f"{format_percent(self.prefix_hit_rate)} / "
                f"{self.prefix_hit_tokens} tokens "
                f"({self.prefix_flops_saved / 1e12:.1f} TFLOPs), "
                f"{self.prefix_evictions} evictions",
            ),
        ]

    def to_text(self, title: str = "serving metrics") -> str:
        return render_table(["metric", "value"], self.to_rows(), title=title)


@dataclass
class TenantMetrics:
    """One tenant's slice of a run: latencies, goodput, SLO attainment.

    Computed against the tenant's *own* SLO (its SLO class when a tenancy
    config is installed, the run's global SLO otherwise) by the same
    :class:`StreamingMetrics` fold as the run-wide metrics: counter fields
    (requests, tokens, good requests) are always exact, percentiles follow
    the fold's quantile backend.
    """

    tenant: str
    num_requests: int
    output_tokens: int
    good_requests: int
    goodput_fraction: float
    goodput_rps: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    e2e_p50: float
    e2e_p95: float
    e2e_p99: float
    slo: SLO = field(default_factory=SLO)


def tenant_report_text(
    tenants: Mapping[str, TenantMetrics], title: str = "per-tenant QoS"
) -> str:
    """Render a per-tenant SLO attainment table (one row per tenant)."""
    rows = []
    for name in sorted(tenants):
        m = tenants[name]
        rows.append(
            (
                name,
                f"{m.num_requests}",
                f"{m.ttft_p50:.3f} / {m.ttft_p99:.3f}",
                f"{m.tpot_p50 * 1e3:.1f} / {m.tpot_p99 * 1e3:.1f}",
                f"{m.slo.ttft:g}s / {m.slo.tpot * 1e3:g}ms",
                format_percent(m.goodput_fraction),
                f"{m.goodput_rps:.2f}",
            )
        )
    return render_table(
        [
            "tenant",
            "requests",
            "TTFT p50/p99 (s)",
            "TPOT p50/p99 (ms)",
            "SLO (TTFT/TPOT)",
            "attainment",
            "goodput req/s",
        ],
        rows,
        title=title,
    )


#: The percentile fields of :class:`ServingMetrics` / :class:`TenantMetrics`
#: as ``(suffix, quantile)`` pairs.
_PERCENTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))


class StreamingMetrics:
    """The one fold that aggregates finished requests, for every engine.

    Engines fold each finished :class:`RequestRecord` in with :meth:`observe`
    as it departs; :meth:`finalize` and :meth:`tenant_metrics` then assemble
    :class:`ServingMetrics` and the per-tenant :class:`TenantMetrics`.  Only
    the latency quantiles depend on the backend ``exact`` picks (engines pass
    their ``retain_records`` setting):

    * ``exact=True`` keeps every latency sample in a
      :class:`PercentileSummary`, sorted once at read time — the same
      result in any fold order;
    * ``exact=False`` uses P² quantile sketches
      (:class:`~repro.obs.sketch.QuantileSketch`) — O(1) memory, so a
      million-request run holds no per-request state; exact for five or
      fewer samples, approximate within the documented P² bound beyond.

    Counts, totals and goodput (requests finished, output tokens,
    SLO-meeting requests) are integer counters on both backends, so
    throughput, goodput fraction and goodput RPS are always exact.
    """

    __slots__ = (
        "slo",
        "exact",
        "finished",
        "good_requests",
        "output_tokens",
        "tenant_slos",
        "_tenants",
        "_ttft",
        "_tpot",
        "_e2e",
    )

    def __init__(
        self,
        slo: Optional[SLO] = None,
        tenant_slos: Optional[Mapping[str, SLO]] = None,
        exact: bool = False,
    ):
        self.slo = slo or SLO()
        self.exact = exact
        self.finished = 0
        self.good_requests = 0
        self.output_tokens = 0
        #: Per-tenant SLO overrides (the tenant's SLO class); tenants not
        #: listed are judged against the run's global ``slo``.
        self.tenant_slos: Dict[str, SLO] = dict(tenant_slos) if tenant_slos else {}
        # One nested accumulator per tagged tenant, fed through ``_add`` so
        # it never nests further.  Untagged traffic allocates nothing here.
        self._tenants: Dict[str, "StreamingMetrics"] = {}
        self._ttft: Union[PercentileSummary, QuantileSketch]
        self._tpot: Union[PercentileSummary, QuantileSketch]
        self._e2e: Union[PercentileSummary, QuantileSketch]
        if exact:
            self._ttft, self._tpot, self._e2e = (
                PercentileSummary(), PercentileSummary(), PercentileSummary()
            )
        else:
            self._ttft = QuantileSketch("TTFT")
            self._tpot = QuantileSketch("TPOT")
            self._e2e = QuantileSketch("E2E latency")

    def observe(self, record: RequestRecord) -> None:
        """Fold one *finished* request in; the caller may then drop it."""
        if not record.finished:
            raise ValueError(
                f"request {record.request.request_id} has not finished; "
                "StreamingMetrics only aggregates completed requests"
            )
        self._add(record)
        tenant = record.request.tenant
        if tenant is not None:
            sub = self._tenants.get(tenant)
            if sub is None:
                sub = StreamingMetrics(
                    self.tenant_slos.get(tenant, self.slo), exact=self.exact
                )
                self._tenants[tenant] = sub
            sub._add(record)

    def _add(self, record: RequestRecord) -> None:
        self.finished += 1
        self.output_tokens += record.request.output_tokens
        if record.meets(self.slo):
            self.good_requests += 1
        self._ttft.add(record.ttft)
        self._tpot.add(record.tpot)
        self._e2e.add(record.e2e_latency)

    @property
    def count(self) -> int:
        return self.finished

    def _percentile_fields(self) -> Dict[str, float]:
        """The nine ``{ttft,tpot,e2e}_p{50,95,99}`` metric fields."""
        return {
            f"{name}_{suffix}": sample.quantile(q)
            for name, sample in (("ttft", self._ttft), ("tpot", self._tpot), ("e2e", self._e2e))
            for suffix, q in _PERCENTILES
        }

    def tenant_metrics(self, duration: float) -> Dict[str, TenantMetrics]:
        """Per-tenant aggregates of the folded stream (empty when untagged)."""
        span = max(duration, 1e-12)
        return {
            tenant: TenantMetrics(
                tenant=tenant,
                num_requests=sub.finished,
                output_tokens=sub.output_tokens,
                good_requests=sub.good_requests,
                goodput_fraction=sub.good_requests / sub.finished,
                goodput_rps=sub.good_requests / span,
                slo=sub.slo,
                **sub._percentile_fields(),
            )
            for tenant, sub in sorted(self._tenants.items())
        }

    def finalize(
        self,
        duration: float,
        kv_utilization_mean: float = 0.0,
        kv_utilization_peak: float = 0.0,
        preemptions: int = 0,
        prefix_hit_rate: float = 0.0,
        prefix_hit_tokens: int = 0,
        prefix_flops_saved: float = 0.0,
        prefix_evictions: int = 0,
    ) -> ServingMetrics:
        """Assemble :class:`ServingMetrics` from the fold plus engine counters."""
        if self.finished == 0:
            raise ValueError(
                "no finished requests to aggregate (0 observed) — the trace "
                "may be empty or the run ended before any request completed"
            )
        span = max(duration, 1e-12)
        return ServingMetrics(
            num_requests=self.finished,
            duration=duration,
            output_tokens_per_second=self.output_tokens / span,
            requests_per_second=self.finished / span,
            goodput_fraction=self.good_requests / self.finished,
            goodput_rps=self.good_requests / span,
            kv_utilization_mean=kv_utilization_mean,
            kv_utilization_peak=kv_utilization_peak,
            preemptions=preemptions,
            slo=self.slo,
            prefix_hit_rate=prefix_hit_rate,
            prefix_hit_tokens=prefix_hit_tokens,
            prefix_flops_saved=prefix_flops_saved,
            prefix_evictions=prefix_evictions,
            **self._percentile_fields(),
        )


def compute_metrics(
    records: Sequence[RequestRecord],
    duration: float,
    slo: SLO,
    **counters: float,
) -> ServingMetrics:
    """Fold the finished ``records`` exactly and finalize.

    ``counters`` are the engine-side keyword arguments of
    :meth:`StreamingMetrics.finalize` (KV utilization, preemptions, prefix
    cache counters).
    """
    fold = StreamingMetrics(slo, exact=True)
    for record in records:
        if record.finished:
            fold.observe(record)
    if fold.finished == 0:
        raise ValueError(
            f"no finished requests to aggregate ({len(records)} records, "
            "0 finished) — the trace may be empty or the run ended before "
            "any request completed"
        )
    return fold.finalize(duration, **counters)
