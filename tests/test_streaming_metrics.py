"""The metrics fold: exact backend vs P² backend, and fold-order independence.

``StreamingMetrics`` is the one aggregation every engine folds finished
requests into.  Its exact backend (``exact=True``, what ``retain_records=True``
runs use and what :func:`compute_metrics` folds through) must not depend on
fold order; its P² backend (``exact=False``) lets million-request runs drop
every record.  The contract this suite pins:

* **order independence** — folding the same finished records in any order
  into the exact backend gives bit-identical run-wide and per-tenant
  metrics, equal to :func:`compute_metrics` and :class:`PercentileSummary`
  over the records in trace order;
* **small samples are exact** — with five or fewer observations the P²
  sketches interpolate their sorted buffers with arithmetic bit-identical
  to :class:`PercentileSummary`, so the streamed ``ServingMetrics`` equals
  the record-based one field for field;
* **aggregates are always exact** — counts, throughput, goodput fraction
  and goodput RPS come from integer counters and match
  :func:`compute_metrics` to the last bit at any sample size, while the
  sketched percentiles stay within the P² sketch's documented worst-case
  rank/value window;
* **end to end** — a serving run with ``retain_records=False`` (including
  under preemption pressure) and a fleet run under crash pressure produce
  the same exact-field metrics and iteration counts as the record-retaining
  run, with no records held;
* **guard rails** — trace iterators must arrive sorted (list traces are
  sorted for the engine and keep their order in ``records``),
  disaggregation and fleet timeline collection refuse to stream,
  unfinished records are rejected.
"""

import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FailureEvent, FailurePlan, FleetConfig, FleetEngine
from repro.model.config import get_model_config
from repro.serving import (
    SLO,
    BatcherConfig,
    DisaggregatedEngine,
    Request,
    RequestRecord,
    ServingConfig,
    ServingEngine,
    StreamingMetrics,
    compute_metrics,
    replay_trace,
)
from repro.serving.metrics import PercentileSummary

LLAMA_13B = get_model_config("llama-13b")

# Exact ServingMetrics fields: everything the integer counters and engine
# inputs determine.  The nine percentile fields are exact only at <= 5
# samples; beyond that they are P²-sketched.
EXACT_FIELDS = (
    "num_requests",
    "duration",
    "output_tokens_per_second",
    "requests_per_second",
    "goodput_fraction",
    "goodput_rps",
    "kv_utilization_mean",
    "kv_utilization_peak",
    "preemptions",
    "slo",
    "prefix_hit_rate",
    "prefix_hit_tokens",
    "prefix_flops_saved",
    "prefix_evictions",
)
PERCENTILE_FIELDS = tuple(
    f"{metric}_{p}" for metric in ("ttft", "tpot", "e2e") for p in ("p50", "p95", "p99")
)


def _record(request_id, arrival, first_token, finish, output_tokens=8):
    record = RequestRecord(
        Request(request_id, arrival, prompt_tokens=64, output_tokens=output_tokens)
    )
    record.first_token_time = first_token
    record.finish_time = finish
    return record


def _fold(records, slo=None, exact=False, tenant_slos=None):
    streaming = StreamingMetrics(slo, tenant_slos=tenant_slos, exact=exact)
    for record in records:
        streaming.observe(record)
    return streaming


class TestPercentileSummaryAccessors:
    def test_count_and_max(self):
        summary = PercentileSummary([3.0, 1.0, 2.0])
        assert summary.count == 3
        assert summary.max == 3.0

    def test_single_sample(self):
        summary = PercentileSummary([7.5])
        assert summary.count == 1
        assert summary.max == 7.5
        assert summary.at(99.0) == 7.5

    def test_grown_summary_equals_built_summary(self):
        values = [0.3, 2.5, 0.1, 1.7, 0.9, 4.2, 0.6]
        grown = PercentileSummary()
        for value in values:
            grown.add(value)
            assert grown.max == max(values[: grown.count])
        built = PercentileSummary(values)
        assert grown.count == built.count == len(values)
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert grown.at(q) == built.at(q)


class TestSmallSampleBitIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_streamed_equals_record_based(self, n):
        records = [
            _record(i, 0.1 * i, 0.3 + 0.17 * i, 1.0 + 0.29 * i * i) for i in range(n)
        ]
        slo = SLO(ttft=0.5, tpot=0.1)
        duration = max(r.finish_time for r in records)
        reference = compute_metrics(
            records,
            duration,
            slo,
            kv_utilization_mean=0.25,
            kv_utilization_peak=0.5,
            preemptions=3,
        )
        streamed = _fold(records, slo).finalize(
            duration, kv_utilization_mean=0.25, kv_utilization_peak=0.5, preemptions=3
        )
        # Not approximately: the whole dataclass, percentiles included, must
        # be bit-identical below the sketches' exact-regime threshold.
        assert asdict(streamed) == asdict(reference)


class TestExactFoldOrderIndependence:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
                st.floats(min_value=1e-3, max_value=60.0, allow_nan=False),
                st.integers(min_value=1, max_value=40),
                st.sampled_from([None, "alpha", "beta", "gamma"]),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_shuffled_fold_equals_trace_order_reference(self, data, rows):
        records = []
        for i, (arrival, ttft, tail, output_tokens, tenant) in enumerate(rows):
            record = RequestRecord(
                Request(
                    i, arrival, prompt_tokens=64, output_tokens=output_tokens,
                    tenant=tenant,
                )
            )
            record.first_token_time = arrival + ttft
            record.finish_time = arrival + ttft + tail
            records.append(record)
        slo = SLO(ttft=1.0, tpot=0.2)
        tenant_slos = {"beta": SLO(ttft=0.5, tpot=0.05)}
        duration = max(r.finish_time for r in records)
        shuffled = data.draw(st.permutations(records))
        fold = _fold(shuffled, slo, exact=True, tenant_slos=tenant_slos)
        in_order = _fold(records, slo, exact=True, tenant_slos=tenant_slos)

        reference = compute_metrics(records, duration, slo, preemptions=2)
        assert asdict(fold.finalize(duration, preemptions=2)) == asdict(reference)
        assert fold.tenant_metrics(duration) == in_order.tenant_metrics(duration)
        # Independent reference: the single-sort PercentileSummary over each
        # tenant's records in trace order, judged against the tenant's SLO.
        tenants = fold.tenant_metrics(duration)
        assert sorted(tenants) == sorted({r.request.tenant for r in records} - {None})
        for name, metrics in tenants.items():
            group = [r for r in records if r.request.tenant == name]
            tenant_slo = tenant_slos.get(name, slo)
            assert metrics.slo == tenant_slo
            assert metrics.num_requests == len(group)
            assert metrics.output_tokens == sum(r.request.output_tokens for r in group)
            assert metrics.good_requests == sum(r.meets(tenant_slo) for r in group)
            for metric, values in (
                ("ttft", [r.ttft for r in group]),
                ("tpot", [r.tpot for r in group]),
                ("e2e", [r.e2e_latency for r in group]),
            ):
                summary = PercentileSummary(values)
                for p in (50, 95, 99):
                    assert getattr(metrics, f"{metric}_p{p}") == summary.at(float(p))


class TestStreamingAccumulator:
    def test_rejects_unfinished_record(self):
        record = RequestRecord(Request(0, 0.0, prompt_tokens=8, output_tokens=4))
        with pytest.raises(ValueError, match="has not finished"):
            StreamingMetrics().observe(record)

    def test_rejects_empty_finalize(self):
        with pytest.raises(ValueError, match="no finished requests"):
            StreamingMetrics().finalize(1.0)

    def test_exact_aggregates_beyond_sketch_regime(self):
        records = [
            _record(i, 0.05 * i, 0.2 + 0.03 * i, 0.9 + 0.07 * i, output_tokens=5 + i % 7)
            for i in range(300)
        ]
        slo = SLO(ttft=1.0, tpot=0.1)
        duration = max(r.finish_time for r in records)
        reference = compute_metrics(records, duration, slo)
        streamed = _fold(records, slo).finalize(duration)
        for field in EXACT_FIELDS:
            assert getattr(streamed, field) == getattr(reference, field), field

    @settings(max_examples=30, deadline=None)
    @given(
        latencies=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
                st.floats(min_value=1e-3, max_value=60.0, allow_nan=False),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_property_aggregates_exact_percentiles_bounded(self, latencies):
        records = [
            _record(i, arrival, arrival + ttft, arrival + ttft + tail)
            for i, (arrival, ttft, tail) in enumerate(latencies)
        ]
        slo = SLO(ttft=1.0, tpot=0.2)
        duration = max(r.finish_time for r in records)
        reference = compute_metrics(records, duration, slo)
        streamed = _fold(records, slo).finalize(duration)
        for field in EXACT_FIELDS:
            assert getattr(streamed, field) == getattr(reference, field), field
        # The sketched percentiles obey the documented P² worst-case window:
        # the estimate of quantile q over n samples lies between the exact
        # quantiles at q -+ (0.15 + 3/n), widened by (0.35 + 1/n) of the
        # observed sample range.
        n = len(records)
        rank_slack = 0.15 + 3.0 / n
        for metric, values in (
            ("ttft", [r.ttft for r in records]),
            ("tpot", [r.tpot for r in records]),
            ("e2e", [r.e2e_latency for r in records]),
        ):
            summary = PercentileSummary(values)
            value_slack = (0.35 + 1.0 / n) * (summary.max - summary._ordered[0])
            for p in (50, 95, 99):
                estimate = getattr(streamed, f"{metric}_p{p}")
                if n <= 5:
                    # The sketch buffers raw samples here: bit-identical, a
                    # stronger claim than the window (which degenerates to
                    # zero width on constant samples while interpolation can
                    # round one ulp off the repeated value).
                    assert estimate == summary.at(float(p)), f"{metric}_p{p}"
                    continue
                lo = summary.at(max(p - rank_slack * 100.0, 0.0))
                hi = summary.at(min(p + rank_slack * 100.0, 100.0))
                assert lo - value_slack <= estimate <= hi + value_slack, (
                    f"{metric}_p{p}: {estimate} outside [{lo}, {hi}] +- {value_slack}"
                )


def _serving_config(retain_records, **overrides):
    return ServingConfig(
        num_gpus=1,
        batcher=BatcherConfig(max_batch_tokens=4096, prefill_chunk_tokens=2048),
        retain_records=retain_records,
        **overrides,
    )


def _digest_exact(result):
    metrics = result.metrics
    return {
        "exact": {f: getattr(metrics, f) for f in EXACT_FIELDS},
        "iterations": result.iterations,
        "preemptions": result.preemptions,
        "tokens_admitted": result.tokens_admitted,
        "tokens_prefilled": result.tokens_prefilled,
        "tokens_preempted_requeued": result.tokens_preempted_requeued,
    }


class TestServingStreamingEndToEnd:
    @settings(max_examples=15, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
                st.integers(min_value=1, max_value=6000),
                st.integers(min_value=1, max_value=600),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_property_streaming_matches_record_based(self, triples):
        trace = replay_trace(sorted(triples))
        slo = SLO()
        retained = ServingEngine(LLAMA_13B, _serving_config(True)).run(trace, slo)
        streamed = ServingEngine(LLAMA_13B, _serving_config(False)).run(trace, slo)
        assert _digest_exact(streamed) == _digest_exact(retained)
        assert streamed.records == []
        assert not streamed.retain_records and retained.retain_records

    def test_streaming_matches_under_preemption_pressure(self):
        # Oversubscribes the 1-GPU KV pool: preempt/requeue cycles mean some
        # requests restart, and the streamed accumulator must still agree.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)])
        slo = SLO()
        retained = ServingEngine(LLAMA_13B, _serving_config(True)).run(trace, slo)
        streamed = ServingEngine(LLAMA_13B, _serving_config(False)).run(trace, slo)
        assert retained.preemptions > 0
        assert _digest_exact(streamed) == _digest_exact(retained)

    def test_streaming_percentiles_exact_at_small_n(self):
        trace = replay_trace([(0.0, 512, 8), (0.5, 256, 16), (1.0, 1024, 4)])
        slo = SLO()
        retained = ServingEngine(LLAMA_13B, _serving_config(True)).run(trace, slo)
        streamed = ServingEngine(LLAMA_13B, _serving_config(False)).run(trace, slo)
        assert asdict(streamed.metrics) == asdict(retained.metrics)

    def test_streaming_rejects_unsorted_trace(self):
        trace = [
            Request(0, 5.0, prompt_tokens=64, output_tokens=4),
            Request(1, 1.0, prompt_tokens=64, output_tokens=4),
        ]
        engine = ServingEngine(LLAMA_13B, _serving_config(False))
        with pytest.raises(ValueError, match="sorted by arrival_time"):
            engine.run(iter(trace), SLO())

    def test_streaming_sorts_unsorted_sequence(self):
        trace = [
            Request(2, 1.5, prompt_tokens=512, output_tokens=8),
            Request(0, 0.0, prompt_tokens=256, output_tokens=16),
            Request(1, 0.0, prompt_tokens=1024, output_tokens=4),
        ]
        slo = SLO()
        streamed = ServingEngine(LLAMA_13B, _serving_config(False)).run(trace, slo)
        retained = ServingEngine(LLAMA_13B, _serving_config(True)).run(trace, slo)
        assert streamed.records == []
        assert asdict(streamed.metrics) == asdict(retained.metrics)

    def test_retained_run_sorts_unsorted_sequence_and_keeps_trace_order(self):
        trace = [
            Request(2, 1.5, prompt_tokens=512, output_tokens=8),
            Request(0, 0.0, prompt_tokens=256, output_tokens=16),
            Request(1, 0.0, prompt_tokens=1024, output_tokens=4),
        ]
        in_order = sorted(trace, key=lambda r: (r.arrival_time, r.request_id))
        engine_config = _serving_config(True)
        result = ServingEngine(LLAMA_13B, engine_config).run(trace, SLO())
        reference = ServingEngine(LLAMA_13B, engine_config).run(in_order, SLO())
        assert [r.request.request_id for r in result.records] == [2, 0, 1]
        assert all(r.finished for r in result.records)
        assert asdict(result.metrics) == asdict(reference.metrics)

    def test_disaggregation_refuses_streaming(self):
        with pytest.raises(ValueError, match="requires the colocated engine"):
            DisaggregatedEngine(LLAMA_13B, _serving_config(False))


class TestFleetStreamingEndToEnd:
    def _run(self, retain_records):
        trace = list(
            replay_trace(
                [(0.4 * i, 256 + 64 * (i % 5), 16 + (i % 9)) for i in range(120)]
            )
        )
        config = FleetConfig(
            gpus_per_replica=1,
            initial_replicas=2,
            max_replicas=2,
            retain_records=retain_records,
        )
        plan = FailurePlan(
            events=(FailureEvent(time=5.0, kind="crash", replica_index=0, duration=4.0),)
        )
        engine = FleetEngine(LLAMA_13B, config, failure_plan=plan)
        return engine.run(trace, SLO())

    def test_streaming_matches_under_crash_pressure(self):
        retained = self._run(True)
        streamed = self._run(False)
        assert asdict(retained.fleet) == asdict(streamed.fleet)
        assert _digest_exact(streamed) == _digest_exact(retained)
        assert streamed.records == []
        assert not streamed.retain_records and retained.retain_records

    def test_streaming_matches_when_a_crash_ties_an_arrival(self):
        # Arrivals every 0.5 s, so request 10 arrives exactly when replica 0
        # crashes; on both settings the arrival goes first.
        trace = replay_trace(
            [(0.5 * i, 256 + 64 * (i % 5), 16 + (i % 9)) for i in range(40)]
        )
        plan = FailurePlan(
            events=(FailureEvent(time=5.0, kind="crash", replica_index=0, duration=4.0),)
        )
        results = [
            FleetEngine(
                LLAMA_13B,
                FleetConfig(
                    gpus_per_replica=1, initial_replicas=2, max_replicas=2,
                    retain_records=retain_records,
                ),
                failure_plan=plan,
            ).run(trace, SLO())
            for retain_records in (True, False)
        ]
        retained, streamed = results
        assert retained.fleet.rerouted_requests == streamed.fleet.rerouted_requests == 1
        assert asdict(retained.fleet) == asdict(streamed.fleet)
        assert _digest_exact(streamed) == _digest_exact(retained)

    def test_streaming_rejects_unsorted_trace(self):
        config = FleetConfig(initial_replicas=1, retain_records=False)
        engine = FleetEngine(LLAMA_13B, config)
        trace = [
            Request(0, 5.0, prompt_tokens=64, output_tokens=4),
            Request(1, 1.0, prompt_tokens=64, output_tokens=4),
        ]
        with pytest.raises(ValueError, match="sorted by arrival_time"):
            engine.run(iter(trace), SLO())
