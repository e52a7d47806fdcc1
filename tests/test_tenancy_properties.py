"""Property-tested fairness invariants of the multi-tenant QoS layer.

The tenancy layer (``repro.serving.tenancy`` + the batcher's ``fair``
policy) makes strong promises; this suite pins each one as an executable
invariant:

* **starvation-freedom** — under fair scheduling every request of every
  tenant finishes, whatever the trace shape, and per-tenant request counts
  are conserved end to end;
* **fair-share isolation** — every fair admission picks a tenant whose
  virtual-token counter is minimal among the bucket-ready waiting tenants
  (the virtual-token-counter invariant that bounds any tenant's lag);
* **token buckets never over-admit** — granted work over any horizon is
  bounded by ``capacity + rate * T`` (plus at most one oversized request's
  debt, which must refill before the next grant);
* **single-tenant neutrality** — with one tenant (or none) the fair policy
  is *byte-identical* to FCFS: same records, same timestamps, same
  iteration ends in the event stream;
* **tenancy present-but-unconfigured is invisible** — attaching an empty
  ``TenancyConfig`` to a pre-tenancy scenario changes nothing, bit for bit;
* **fast-forward exactness survives fair scheduling** — the coalesced
  decode path stays byte-identical to the naive stepper on multi-tenant
  traces (the tenant scenarios themselves are additionally pinned in
  ``test_fast_forward_equivalence.py``);
* **streaming per-tenant aggregates are exact** — the bounded-memory
  ``StreamingMetrics`` path reports the same per-tenant counters as the
  record-based path, massive-scenario slices included;
* **per-tenant conservation at fleet scale** — routers x fair scheduling x
  crash storms lose and duplicate nothing, per tenant;
* and the headline **noisy-neighbour acceptance**: fair scheduling keeps
  the interactive tenant's TTFT p99 inside its SLO while the batch tenant
  backfills >= 50% of the throughput it achieves running alone (FCFS, by
  contrast, misses the interactive SLO outright).
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.cluster import FleetConfig, FleetEngine
from repro.fleet.failures import FailureEvent, FailurePlan
from repro.model.config import get_model_config
from repro.obs.events import EventRecorder
from repro.serving.batcher import BatcherConfig, ContinuousBatcher
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.metrics import SLO
from repro.serving.scenarios import SCENARIO_REGISTRY, get_scenario, run_scenario
from repro.serving.tenancy import (
    TenancyConfig,
    TenantSpec,
    TokenBucket,
    get_slo_class,
)
from repro.serving.workload import merge_traces, poisson_trace, replay_trace

from test_fast_forward_equivalence import assert_fast_matches_naive, iteration_ends

LLAMA_13B = get_model_config("llama-13b")


def serving_digest(result, recorder):
    """Everything a ServingResult and its event stream observed."""
    return {
        "mode": result.mode,
        "metrics": asdict(result.metrics),
        "tenant_metrics": {k: asdict(v) for k, v in result.tenant_metrics.items()},
        "records": [
            (r.request.request_id, r.first_token_time, r.finish_time, r.preemptions)
            for r in result.records
        ],
        "iterations": result.iterations,
        "tokens_admitted": result.tokens_admitted,
        "tokens_prefilled": result.tokens_prefilled,
        "tokens_preempted_requeued": result.tokens_preempted_requeued,
        "preemptions": result.preemptions,
        "iteration_ends": iteration_ends(recorder),
    }


def _config(policy="fair", tenancy=None, fast_forward=True):
    return ServingConfig(
        num_gpus=1,
        batcher=BatcherConfig(
            max_batch_tokens=4096, prefill_chunk_tokens=2048, policy=policy
        ),
        tenancy=tenancy,
        fast_forward=fast_forward,
    )


def _serve(trace, *args, **kwargs):
    """The digest of serving ``trace`` on ``_config(*args, **kwargs)``."""
    recorder = EventRecorder()
    config = replace(_config(*args, **kwargs), observe=recorder)
    return serving_digest(ServingEngine(LLAMA_13B, config).run(trace, SLO()), recorder)


def _serve_scenario(scenario):
    """The digest of ``scenario`` at seed 0."""
    recorder = EventRecorder()
    return serving_digest(run_scenario(scenario, seed=0, observe=recorder), recorder)


def _two_tenant_trace(triples_a, triples_b):
    return merge_traces(
        replay_trace(sorted(triples_a), tenant="acme"),
        replay_trace(sorted(triples_b), tenant="zeta"),
    )


_triples = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.integers(min_value=1, max_value=6000),
        st.integers(min_value=1, max_value=400),
    ),
    min_size=1,
    max_size=10,
)


# ---------------------------------------------------------------------------
# Token buckets never over-admit
# ---------------------------------------------------------------------------
class TestTokenBucket:
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.floats(min_value=10.0, max_value=10_000.0, allow_nan=False),
        rate=st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_never_over_admits_within_capacity(self, capacity, rate, arrivals):
        """Requests no larger than the bucket: granted <= capacity + rate*T."""
        bucket = TokenBucket(capacity=capacity, refill_rate=rate)
        granted, now = 0.0, 0.0
        for gap, frac in arrivals:
            now += gap
            tokens = max(1, int(frac * capacity))
            if bucket.admit(now, tokens):
                granted += tokens
        assert granted <= capacity + rate * now + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
        rate=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        oversize=st.integers(min_value=1, max_value=100_000),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
    )
    def test_oversized_requests_pay_their_debt(self, capacity, rate, oversize, gaps):
        """Arbitrary sizes: the bound loosens by at most one request's debt."""
        bucket = TokenBucket(capacity=capacity, refill_rate=rate)
        granted, now, largest = 0.0, 0.0, 0.0
        for gap in gaps:
            now += gap
            if bucket.admit(now, oversize):
                granted += oversize
                largest = max(largest, float(oversize))
        debt = max(0.0, largest - capacity)
        assert granted <= capacity + rate * now + debt + 1e-6

    def test_oversized_needs_full_bucket_again(self):
        bucket = TokenBucket(capacity=100.0, refill_rate=10.0)
        assert bucket.admit(0.0, 1000)  # full bucket grants the giant once
        # In debt (-900): the next grant needs the bucket back at capacity,
        # i.e. 100 seconds of refill, not just back above zero.
        assert not bucket.admit(50.0, 1000)
        assert bucket.ready_time(50.0, 1000) == pytest.approx(100.0)
        assert bucket.admit(100.0, 1000)

    @settings(max_examples=30, deadline=None)
    @given(
        now=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        tokens=st.integers(min_value=1, max_value=5000),
    )
    def test_ready_time_is_consistent_with_admit(self, now, tokens):
        """admit() succeeds exactly from ready_time() onward."""
        bucket = TokenBucket(capacity=1000.0, refill_rate=50.0)
        bucket.admit(0.0, 900)  # drain most of the bucket first
        ready = bucket.ready_time(now, tokens)
        assert ready >= now
        if ready > now + 1e-9:
            probe = TokenBucket(capacity=1000.0, refill_rate=50.0)
            probe.admit(0.0, 900)
            assert not probe.admit(now, tokens)
        probe = TokenBucket(capacity=1000.0, refill_rate=50.0)
        probe.admit(0.0, 900)
        assert probe.admit(ready + 1e-6, tokens)


# ---------------------------------------------------------------------------
# Starvation-freedom and per-tenant conservation under fair scheduling
# ---------------------------------------------------------------------------
class TestStarvationFreedom:
    @settings(max_examples=15, deadline=None)
    @given(triples_a=_triples, triples_b=_triples)
    def test_every_tenant_finishes_everything(self, triples_a, triples_b):
        trace = _two_tenant_trace(triples_a, triples_b)
        tenancy = TenancyConfig.of(
            TenantSpec("acme", weight=3.0), TenantSpec("zeta", weight=1.0)
        )
        result = ServingEngine(LLAMA_13B, _config(tenancy=tenancy)).run(trace, SLO())
        assert result.metrics.num_requests == len(trace)
        for record in result.records:
            assert record.finished
            assert record.first_token_time is not None
            assert record.finish_time >= record.first_token_time
        # Per-tenant conservation: the aggregates partition the trace.
        expected = {"acme": len(triples_a), "zeta": len(triples_b)}
        got = {k: v.num_requests for k, v in result.tenant_metrics.items()}
        assert got == expected
        assert sum(m.output_tokens for m in result.tenant_metrics.values()) == sum(
            r.output_tokens for r in trace
        )


# ---------------------------------------------------------------------------
# Fair-share isolation: the virtual-token-counter admission invariant
# ---------------------------------------------------------------------------
def test_fair_admission_always_picks_minimal_virtual_counter():
    """Every fair admission chooses a tenant with the least virtual time.

    This is the invariant that bounds any backlogged tenant's service lag:
    a tenant can never be passed over in favour of one that has already
    consumed more weighted work.  Checked on every single admission of the
    saturating noisy-neighbour trace via an instrumented selection hook.
    """
    observed = {"admissions": 0}
    orig = ContinuousBatcher._select_admission_index

    def spy(self):
        index = orig(self)
        if index is not None and self.config.policy == "fair":
            chosen = self.waiting[index]
            chosen_counter = self._virtual_tokens.get(chosen.request.tenant, 0.0)
            for state in self.waiting:
                if self._bucket_ready(state):
                    other = self._virtual_tokens.get(state.request.tenant, 0.0)
                    assert chosen_counter <= other + 1e-9
            observed["admissions"] += 1
        return index

    ContinuousBatcher._select_admission_index = spy
    try:
        run_scenario(get_scenario("noisy-neighbour"))
    finally:
        ContinuousBatcher._select_admission_index = orig
    assert observed["admissions"] >= 140  # every request admitted at least once


# ---------------------------------------------------------------------------
# Single-tenant neutrality: fair == FCFS, byte for byte
# ---------------------------------------------------------------------------
class TestSingleTenantNeutrality:
    @settings(max_examples=10, deadline=None)
    @given(triples=_triples, tagged=st.booleans())
    def test_fair_is_fcfs_with_one_tenant(self, triples, tagged):
        trace = replay_trace(sorted(triples), tenant="solo" if tagged else None)
        assert _serve(trace, "fair") == _serve(trace, "fcfs")

    def test_fair_is_fcfs_under_preemption_pressure(self):
        # Oversubscribe the 1-GPU KV pool so preempted requests re-queue:
        # the appendleft'd victims must keep their head-of-line claim under
        # the fair key exactly as they do under FCFS.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)], tenant="solo")
        fair = _serve(trace, "fair")
        assert fair["preemptions"] > 0
        assert fair == _serve(trace, "fcfs")


# ---------------------------------------------------------------------------
# Tenancy present-but-unconfigured is invisible (the regression satellite)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "scenario_name", ["chat", "bursty-long", "shared-system-prompt"]
)
def test_empty_tenancy_config_is_byte_invisible(scenario_name):
    """An empty TenancyConfig on a pre-tenancy scenario changes nothing."""
    scenario = get_scenario(scenario_name)
    baseline = _serve_scenario(scenario)
    assert _serve_scenario(replace(scenario, tenancy=TenancyConfig())) == baseline


def test_tenant_tags_alone_do_not_change_scheduling():
    """Tagged requests under FCFS without tenancy: metrics only, no behaviour."""
    plain = replay_trace([(0.1 * i, 512 + 64 * i, 32) for i in range(20)])
    tagged = replay_trace(
        [(0.1 * i, 512 + 64 * i, 32) for i in range(20)], tenant="acme"
    )
    base_digest, run_digest = _serve(plain, "fcfs"), _serve(tagged, "fcfs")
    assert run_digest.pop("tenant_metrics").keys() == {"acme"}
    assert base_digest.pop("tenant_metrics") == {}
    assert run_digest == base_digest


# ---------------------------------------------------------------------------
# Fast-forward exactness survives fair scheduling
# ---------------------------------------------------------------------------
class TestFastForwardUnderFair:
    @settings(max_examples=10, deadline=None)
    @given(triples_a=_triples, triples_b=_triples)
    def test_fast_forward_byte_identical_multi_tenant(self, triples_a, triples_b):
        trace = _two_tenant_trace(triples_a, triples_b)
        tenancy = TenancyConfig.of(
            TenantSpec("acme", slo_class=get_slo_class("interactive"), weight=2.0),
            TenantSpec("zeta", slo_class=get_slo_class("batch")),
        )
        fast = _serve(trace, tenancy=tenancy)
        naive = _serve(trace, tenancy=tenancy, fast_forward=False)
        assert_fast_matches_naive(fast, naive)


# ---------------------------------------------------------------------------
# Streaming per-tenant aggregates match the record-based path exactly
# ---------------------------------------------------------------------------
_TENANT_COUNTER_FIELDS = (
    "num_requests",
    "output_tokens",
    "good_requests",
    "goodput_fraction",
    "goodput_rps",
)


def _tenant_counters(result):
    return {
        name: {f: getattr(m, f) for f in _TENANT_COUNTER_FIELDS}
        for name, m in result.tenant_metrics.items()
    }


class TestStreamingTenantAggregates:
    @settings(max_examples=10, deadline=None)
    @given(triples_a=_triples, triples_b=_triples)
    def test_streaming_counters_match_record_based(self, triples_a, triples_b):
        trace = _two_tenant_trace(triples_a, triples_b)
        tenancy = TenancyConfig.of(TenantSpec("acme"), TenantSpec("zeta"))

        def run(retain):
            config = replace(_config(tenancy=tenancy), retain_records=retain)
            return ServingEngine(LLAMA_13B, config).run(list(trace), SLO())

        retained, streamed = run(True), run(False)
        assert streamed.records == []
        assert _tenant_counters(streamed) == _tenant_counters(retained)
        assert set(streamed.tenant_metrics) == set(retained.tenant_metrics)
        for name, m in streamed.tenant_metrics.items():
            assert m.slo == retained.tenant_metrics[name].slo

    def test_streaming_percentiles_exact_at_small_n(self):
        # <= 5 samples per tenant: the P-squared sketches buffer raw values,
        # so even the percentile fields agree bit for bit.
        trace = _two_tenant_trace(
            [(0.0, 512, 8), (0.5, 256, 16)], [(0.2, 1024, 4), (0.9, 128, 32)]
        )
        tenancy = TenancyConfig.of(TenantSpec("acme"), TenantSpec("zeta"))

        def run(retain):
            config = replace(_config(tenancy=tenancy), retain_records=retain)
            return ServingEngine(LLAMA_13B, config).run(list(trace), SLO())

        retained, streamed = run(True), run(False)
        assert {k: asdict(v) for k, v in streamed.tenant_metrics.items()} == {
            k: asdict(v) for k, v in retained.tenant_metrics.items()
        }

    @pytest.mark.parametrize(
        "scenario_name",
        sorted(name for name in SCENARIO_REGISTRY if name.startswith("massive-")),
    )
    def test_massive_slices_agree_and_stay_untagged(self, scenario_name):
        scenario = SCENARIO_REGISTRY[scenario_name]
        retained = run_scenario(
            scenario, seed=0, retain_records=True, max_requests=300
        )
        streamed = run_scenario(
            scenario, seed=0, retain_records=False, max_requests=300
        )
        # Untagged workloads report no tenants in either path ...
        assert retained.tenant_metrics == {} and streamed.tenant_metrics == {}
        # ... and the exact counter metrics agree as before.
        assert streamed.metrics.num_requests == retained.metrics.num_requests
        assert streamed.metrics.goodput_fraction == retained.metrics.goodput_fraction
        assert streamed.iterations == retained.iterations


# ---------------------------------------------------------------------------
# Per-tenant conservation at fleet scale (routers x fair x crash storms)
# ---------------------------------------------------------------------------
_failure_events = st.lists(
    st.builds(
        FailureEvent,
        time=st.floats(min_value=0.05, max_value=4.0, allow_nan=False),
        kind=st.sampled_from(["crash", "slow"]),
        replica_index=st.integers(min_value=0, max_value=3),
        duration=st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
        slowdown=st.just(2.0),
    ),
    max_size=3,
)


@settings(max_examples=8, deadline=None)
@given(
    router=st.sampled_from(
        ["round-robin", "least-tokens", "session-affinity", "kv-aware"]
    ),
    seed=st.integers(min_value=0, max_value=2**20),
    per_tenant=st.integers(min_value=3, max_value=8),
    events=_failure_events,
)
def test_fleet_per_tenant_conservation_under_failures(
    router, seed, per_tenant, events
):
    """No router loses or duplicates any tenant's requests, crashes included."""
    trace = merge_traces(
        poisson_trace(
            num_requests=per_tenant,
            arrival_rate=4.0,
            prompt_mean=512,
            output_mean=24,
            seed=seed,
            tenant="acme",
        ),
        poisson_trace(
            num_requests=per_tenant,
            arrival_rate=2.0,
            prompt_mean=1024,
            output_mean=16,
            seed=seed + 1,
            tenant="zeta",
        ),
    )
    config = FleetConfig(
        gpus_per_replica=1,
        initial_replicas=2,
        max_replicas=4,
        sessions=4,
        batcher=BatcherConfig(policy="fair"),
        tenancy=TenancyConfig.of(
            TenantSpec("acme", slo_class=get_slo_class("interactive"), weight=2.0),
            TenantSpec("zeta", slo_class=get_slo_class("batch")),
        ),
    )
    engine = FleetEngine(
        get_model_config("llama-13b"),
        config,
        router=router,
        failure_plan=FailurePlan(events=tuple(events)),
    )
    result = engine.run(trace)
    assert result.metrics.num_requests == len(trace)
    assert all(record.finished for record in result.records)
    assert result.token_accounting_balanced
    counts = {k: v.num_requests for k, v in result.tenant_metrics.items()}
    assert counts == {"acme": per_tenant, "zeta": per_tenant}
    # Each tenant is judged against its own SLO class.
    assert result.tenant_metrics["acme"].slo == get_slo_class("interactive").slo
    assert result.tenant_metrics["zeta"].slo == get_slo_class("batch").slo


def test_fleet_rejects_rate_limited_tenants():
    """Per-replica buckets would multiply the global rate: rejected up front."""
    with pytest.raises(ValueError, match="rate_limit"):
        FleetConfig(
            tenancy=TenancyConfig.of(
                TenantSpec("mob", rate_limit=100.0, burst_tokens=200.0)
            )
        )


# ---------------------------------------------------------------------------
# The headline acceptance: noisy neighbour contained, capacity backfilled
# ---------------------------------------------------------------------------
class TestNoisyNeighbourAcceptance:
    def test_interactive_slo_held_while_batch_backfills(self):
        scenario = get_scenario("noisy-neighbour")
        shared = run_scenario(scenario, seed=0)
        acme = shared.tenant_metrics["acme"]
        crunch = shared.tenant_metrics["crunch"]
        # The interactive tenant's tail stays inside its SLO class bound.
        assert acme.ttft_p99 <= acme.slo.ttft
        assert acme.goodput_fraction == 1.0
        # The batch tenant backfills >= 50% of its stand-alone throughput
        # (residual capacity is not wasted to protect the interactive SLO).
        solo_scenario = replace(
            scenario,
            trace_factory=lambda seed: [
                r for r in scenario.make_trace(seed) if r.tenant == "crunch"
            ],
        )
        solo = run_scenario(solo_scenario, seed=0)
        shared_tput = crunch.output_tokens / shared.metrics.duration
        solo_tput = solo.tenant_metrics["crunch"].output_tokens / solo.metrics.duration
        assert crunch.output_tokens == solo.tenant_metrics["crunch"].output_tokens
        assert shared_tput >= 0.5 * solo_tput

    def test_fcfs_misses_what_fair_holds(self):
        """The A/B that motivates the fair scheduler, pinned as a test."""
        scenario = get_scenario("noisy-neighbour")
        fair = run_scenario(scenario, seed=0).tenant_metrics["acme"]
        fcfs = run_scenario(scenario, seed=0, policy="fcfs").tenant_metrics["acme"]
        assert fair.ttft_p99 <= fair.slo.ttft
        assert fcfs.ttft_p99 > fcfs.slo.ttft
        assert fair.goodput_fraction > fcfs.goodput_fraction
