"""Aggregate per-request span chains into tail attribution and run diffs.

:mod:`repro.obs.critical_path` explains one request; this module explains a
*population*: where the p99 TTFT of a run actually went ("61% queue-wait,
24% prefill, …"), and why a latency quantile moved between two runs of
different configurations (prefix caching on/off, a router swap, a failure
plan).  Everything is derived from :class:`RequestAttribution` objects, so
it works identically on live recorders and on reloaded JSONL streams.

Shares are computed over span *durations*, which tile the measured latency
exactly (see the conservation oracle), so a table's seconds column sums to
the latency it decomposes up to float addition order — the exactness
guarantee lives at the span level, aggregation is ordinary arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .critical_path import (
    CRASH_REQUEUE,
    DECODE,
    DECODE_QUEUE,
    KV_HANDOFF,
    PREEMPT_REQUEUE,
    PREFILL_SPAN,
    QUEUE,
    REPREFILL,
    SLOW_NODE,
    RequestAttribution,
)
from .sketch import interpolate

__all__ = [
    "SPAN_ORDER",
    "TailAttribution",
    "RunDiff",
    "mean_breakdown",
    "tail_attribution",
    "diff_attributions",
]

#: Canonical display order of span buckets (tables stay stable as buckets
#: appear and disappear between runs).
SPAN_ORDER: Tuple[str, ...] = (
    QUEUE,
    PREFILL_SPAN,
    DECODE,
    PREEMPT_REQUEUE,
    REPREFILL,
    CRASH_REQUEUE,
    SLOW_NODE,
    KV_HANDOFF,
    DECODE_QUEUE,
)


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("cannot take a percentile of an empty sample")
    return interpolate(sorted(values), q / 100.0)


def _metric_value(attr: RequestAttribution, metric: str) -> float:
    if metric == "ttft":
        return attr.ttft
    if metric == "e2e":
        return attr.e2e_latency
    raise ValueError(f"unknown attribution metric {metric!r} (ttft or e2e)")


def _accumulate(
    attrs: Iterable[RequestAttribution], metric: str
) -> Tuple[Dict[str, float], int]:
    """Sum per-kind seconds over requests (TTFT cuts at the first token)."""
    totals: Dict[str, float] = {}
    count = 0
    for attr in attrs:
        count += 1
        for kind, seconds in attr.breakdown(
            until_first_token=(metric == "ttft")
        ).items():
            totals[kind] = totals.get(kind, 0.0) + seconds
    return totals, count


def _ordered(totals: Dict[str, float]) -> Dict[str, float]:
    tail = sorted(k for k in totals if k not in SPAN_ORDER)
    return {
        kind: totals[kind]
        for kind in (*SPAN_ORDER, *tail)
        if kind in totals
    }


def mean_breakdown(
    attributions: Dict[int, RequestAttribution], metric: str = "ttft"
) -> Dict[str, float]:
    """Mean seconds per span kind over all finished requests."""
    finished = [a for a in attributions.values() if a.finished]
    totals, count = _accumulate(finished, metric)
    if count == 0:
        return {}
    return _ordered({kind: seconds / count for kind, seconds in totals.items()})


@dataclass
class TailAttribution:
    """Where the tail of one latency metric went, by span kind."""

    metric: str
    quantile: float
    threshold: float                #: metric value at the quantile
    request_ids: List[int]          #: requests at/above the threshold
    totals: Dict[str, float]        #: summed seconds per kind over the tail
    shares: Dict[str, float]        #: totals normalised to fractions
    mean: Dict[str, float] = field(default_factory=dict)  #: all-request mean


def tail_attribution(
    attributions: Dict[int, RequestAttribution],
    metric: str = "ttft",
    quantile: float = 99.0,
) -> TailAttribution:
    """Decompose the requests at/above a latency quantile by span kind."""
    finished = [a for a in attributions.values() if a.finished]
    if not finished:
        raise ValueError("no finished requests to attribute")
    threshold = _percentile([_metric_value(a, metric) for a in finished], quantile)
    tail = [a for a in finished if _metric_value(a, metric) >= threshold]
    totals, _ = _accumulate(tail, metric)
    grand = sum(totals.values())
    shares = (
        {kind: seconds / grand for kind, seconds in totals.items()}
        if grand > 0.0
        else {kind: 0.0 for kind in totals}
    )
    return TailAttribution(
        metric=metric,
        quantile=quantile,
        threshold=threshold,
        request_ids=sorted(a.request_id for a in tail),
        totals=_ordered(totals),
        shares=_ordered(shares),
        mean=mean_breakdown(attributions, metric),
    )


@dataclass
class RunDiff:
    """Why one latency quantile moved between a baseline and a current run."""

    metric: str
    quantile: float
    baseline_value: float
    current_value: float
    span_deltas: Dict[str, float]      #: current minus baseline mean seconds
    baseline_mean: Dict[str, float]
    current_mean: Dict[str, float]
    baseline_prefix_tokens: float      #: mean prefix-cache tokens per request
    current_prefix_tokens: float

    @property
    def delta(self) -> float:
        return self.current_value - self.baseline_value

    def dominant(self) -> Optional[str]:
        """The span kind contributing the largest absolute mean shift."""
        if not self.span_deltas:
            return None
        return max(self.span_deltas, key=lambda kind: abs(self.span_deltas[kind]))


def diff_attributions(
    baseline: Dict[int, RequestAttribution],
    current: Dict[int, RequestAttribution],
    metric: str = "ttft",
    quantile: float = 50.0,
) -> RunDiff:
    """Attribute a quantile shift between two runs to span-kind mean shifts.

    The quantile locates *how much* the metric moved; the per-kind mean
    breakdown (over all finished requests of each run) locates *where* the
    time moved, which is robust to the two runs tailing on different
    individual requests.
    """

    def value(attrs: Dict[int, RequestAttribution]) -> float:
        finished = [a for a in attrs.values() if a.finished]
        if not finished:
            raise ValueError("no finished requests to diff")
        return _percentile([_metric_value(a, metric) for a in finished], quantile)

    def prefix_mean(attrs: Dict[int, RequestAttribution]) -> float:
        finished = [a for a in attrs.values() if a.finished]
        if not finished:
            return 0.0
        return sum(a.prefix_cached_tokens for a in finished) / len(finished)

    base_mean = mean_breakdown(baseline, metric)
    curr_mean = mean_breakdown(current, metric)
    deltas = {
        kind: curr_mean.get(kind, 0.0) - base_mean.get(kind, 0.0)
        for kind in {*base_mean, *curr_mean}
    }
    ordered_tail = sorted(k for k in deltas if k not in SPAN_ORDER)
    span_deltas = {
        kind: deltas[kind]
        for kind in (*SPAN_ORDER, *ordered_tail)
        if kind in deltas
    }
    return RunDiff(
        metric=metric,
        quantile=quantile,
        baseline_value=value(baseline),
        current_value=value(current),
        span_deltas=span_deltas,
        baseline_mean=base_mean,
        current_mean=curr_mean,
        baseline_prefix_tokens=prefix_mean(baseline),
        current_prefix_tokens=prefix_mean(current),
    )
