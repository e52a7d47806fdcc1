"""The batcher's running decode-FLOPs totals price exactly like the ordered fold.

``ContinuousBatcher`` keeps running ``(linear, attention)`` decode-FLOPs
totals over its DECODE-phase requests, and the pools price iterations, the
prefill-budget search and fleet stretch steps from them instead of folding
every decode context.  The shortcut is only allowed because every FLOPs
component is an integer-valued float and the sums stay below 2^53, so this
suite pins:

* the premise — integer-valued decode and prefill components for every
  registered model;
* an oracle wrapped around the batcher and the pool for whole runs: after
  every plan, commit, preemption and decode advance the totals equal a fresh
  ordered fold over the DECODE requests, and every iteration (and fleet
  stretch step) priced from them equals the ordered-fold fallback bit for
  bit — over hypothesis-drawn colocated, disaggregated (decode-only
  admission) and fleet runs with preemption pressure, prefix caching, a TPOT
  cap and faults landing in the middle of decode stretches;
* the 2^53 guard — totals marked inexact at the bound, the ordered fold
  taken, the totals rebuilt once back below, and ``summarize-512k`` on
  llama-70b (whose 8K prefill chunks at 500K+ offsets pass the bound) still
  equal to the naive stepper.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.cluster import FleetConfig, FleetEngine
from repro.fleet.failures import FailureEvent, FailurePlan
from repro.model.config import MODEL_REGISTRY, get_model_config
from repro.model.flops import layer_forward_flops
from repro.serving.batcher import (
    EXACT_FLOPS_BOUND,
    BatcherConfig,
    ContinuousBatcher,
    DecodeFlopsTable,
    IterationPlan,
    Phase,
    RequestState,
)
from repro.serving.engine import (
    DisaggregatedEngine,
    ServingConfig,
    ServingEngine,
    _decode_flops_cached,
    _Pool,
    _prefill_flops_cached,
)
from repro.serving.metrics import SLO, RequestRecord
from repro.serving.paged_kv import PagedKVAllocator
from repro.serving.scenarios import get_scenario, run_scenario
from repro.serving.workload import Request, replay_trace, shared_prefix_trace

LLAMA_13B = get_model_config("llama-13b")


def _fold(batcher, states):
    """The reference: per-component sum from zero, in the given order."""
    linear = 0.0
    attention = 0.0
    for state in states:
        pair = batcher.decode_table.pair(state.context_tokens)
        linear += pair[0]
        attention += pair[1]
    return linear, attention


def _prefill_sum(pool, plan):
    linear = 0.0
    attention = 0.0
    for state, chunk in plan.prefill:
        flops = _prefill_flops_cached(
            pool.model, chunk, state.prefilled,
            state.prefilled + chunk >= state.prefill_target,
        )
        linear += flops.linear
        attention += flops.attention
    return linear, attention


class Oracle:
    """Checks the totals after every mutation and every price drawn from them."""

    def __init__(self, mp):
        self.checked = 0  # batcher states whose exact totals were compared
        self.priced = 0  # iterations whose plan carried the totals
        self.guarded = 0  # ... of which the bound sent to the ordered fold
        self.stretch_steps = 0  # in-flight decode-stretch steps priced
        self.mid_stretch_faults = 0  # crashes / slow windows during a stretch
        for name in ("plan", "commit", "advance_decodes", "_preempt_victim"):
            mp.setattr(ContinuousBatcher, name, self._checked(getattr(ContinuousBatcher, name)))
        mp.setattr(_Pool, "iteration_time", self._iteration_time(_Pool.iteration_time))
        mp.setattr(FleetEngine, "_on_fail", self._on_fail(FleetEngine._on_fail))

    def check(self, batcher):
        decodes = [s for s in batcher.running if s.phase is Phase.DECODE]
        assert batcher.decode_count == len(decodes)
        if batcher._decode_exact:
            totals = (batcher._decode_linear, batcher._decode_attention)
            assert totals == _fold(batcher, decodes)
            self.checked += 1

    def _checked(self, method):
        oracle = self

        def wrapped(batcher, *args, **kwargs):
            result = method(batcher, *args, **kwargs)
            oracle.check(batcher)
            return result

        return wrapped

    def _iteration_time(self, method):
        oracle = self

        def wrapped(pool, plan):
            duration = method(pool, plan)
            if plan.decode_flops is not None:
                oracle.priced += 1
                assert plan.decode_flops == _fold(pool.batcher, plan.decode)
                prefill = _prefill_sum(pool, plan)
                if max(prefill[0] + plan.decode_flops[0], prefill[1] + plan.decode_flops[1]) >= (
                    EXACT_FLOPS_BOUND
                ):
                    oracle.guarded += 1
            fallback = IterationPlan(prefill=list(plan.prefill), decode=list(plan.decode))
            assert duration == method(pool, fallback)
            if pool.in_stretch:
                # An in-flight stretch step: also the reference decode pricer.
                contexts = [state.context_tokens for state in plan.decode]
                assert duration == pool.decode_iteration_time(contexts)
                oracle.stretch_steps += 1
            return duration

        return wrapped

    def _on_fail(self, method):
        oracle = self

        def wrapped(engine, event, now):
            if any(r.pool is not None and r.pool.in_stretch for r in engine._replicas):
                oracle.mid_stretch_faults += 1
            return method(engine, event, now)

        return wrapped


def _digest(result):
    return (
        asdict(result.metrics),
        [(r.request.request_id, r.first_token_time, r.finish_time) for r in result.records],
        result.iterations,
        result.tokens_admitted,
        result.tokens_prefilled,
        result.tokens_preempted_requeued,
        result.preemptions,
    )


def _trace(triples, prefix_tokens, seed):
    if prefix_tokens:
        return shared_prefix_trace(
            num_requests=len(triples),
            arrival_rate=4.0,
            prefix_tokens=prefix_tokens,
            suffix_mean=512,
            output_mean=96,
            seed=seed,
        )
    return replay_trace(sorted(triples))


TRIPLES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.integers(min_value=1, max_value=6000),
        st.integers(min_value=1, max_value=400),
    ),
    min_size=1,
    max_size=14,
)


# ----------------------------------------------------------------------
# The premise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_flops_components_are_integer_valued(name):
    model = MODEL_REGISTRY[name]
    for context in (1, 2, 255, 256, 4097, 131_072, 600_001):
        linear, attention = _decode_flops_cached(model, context)
        assert linear.is_integer() and attention.is_integer()
    for chunk, offset in ((1, 0), (128, 7), (4096, 65_536), (8192, 600_000)):
        for completes in (False, True):
            flops = _prefill_flops_cached(model, chunk, offset, completes)
            assert flops.linear.is_integer() and flops.attention.is_integer()
        layer = layer_forward_flops(model, chunk, offset)
        assert layer.linear.is_integer() and layer.attention.is_integer()


# ----------------------------------------------------------------------
# The oracle over whole runs
# ----------------------------------------------------------------------
class TestServingRuns:
    @settings(max_examples=20, deadline=None)
    @given(
        triples=TRIPLES,
        prefix_tokens=st.sampled_from([0, 0, 2048]),
        tpot_cap=st.sampled_from([None, 0.02]),
        policy=st.sampled_from(["fcfs", "priority"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_colocated(self, triples, prefix_tokens, tpot_cap, policy, seed):
        trace = _trace(triples, prefix_tokens, seed)

        def run(fast_forward):
            config = ServingConfig(
                num_gpus=1,
                batcher=BatcherConfig(
                    max_batch_tokens=4096, prefill_chunk_tokens=2048, policy=policy
                ),
                tpot_cap=tpot_cap,
                prefix_caching=bool(prefix_tokens),
                fast_forward=fast_forward,
            )
            return ServingEngine(LLAMA_13B, config).run(trace, SLO())

        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            fast = run(True)
            naive = run(False)
        assert oracle.priced > 0 and oracle.checked > 0
        assert _digest(fast) == _digest(naive)

    @settings(max_examples=15, deadline=None)
    @given(triples=TRIPLES)
    def test_disaggregated_decode_only_admission(self, triples):
        trace = replay_trace(sorted(triples))

        def run(fast_forward):
            config = ServingConfig(
                num_gpus=2,
                batcher=BatcherConfig(max_batch_tokens=4096, prefill_chunk_tokens=2048),
                fast_forward=fast_forward,
            )
            return DisaggregatedEngine(LLAMA_13B, config).run(trace, SLO())

        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            fast = run(True)
            naive = run(False)
        assert oracle.priced > 0
        assert _digest(fast) == _digest(naive)

    def test_preemption_pressure(self):
        # Oversubscribes the 1-GPU KV pool: decode steps that cross a block
        # boundary preempt, and the victims leave the totals.
        trace = replay_trace([(0.0, 4096, 2048) for _ in range(12)])
        config = ServingConfig(
            num_gpus=1,
            batcher=BatcherConfig(max_batch_tokens=4096, prefill_chunk_tokens=2048),
            tpot_cap=0.05,
        )
        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            result = ServingEngine(LLAMA_13B, config).run(trace, SLO())
        assert result.preemptions > 0
        assert oracle.priced > 0 and oracle.checked > 0


class TestFleetRuns:
    @settings(max_examples=15, deadline=None)
    @given(
        num_requests=st.integers(min_value=4, max_value=30),
        seed=st.integers(min_value=0, max_value=2**16),
        prefix_caching=st.booleans(),
        tpot_cap=st.sampled_from([None, 0.03]),
        crash_at=st.floats(min_value=0.2, max_value=6.0),
        slow_at=st.floats(min_value=0.2, max_value=6.0),
    )
    def test_fleet(self, num_requests, seed, prefix_caching, tpot_cap, crash_at, slow_at):
        trace = shared_prefix_trace(
            num_requests=num_requests,
            arrival_rate=4.0,
            prefix_tokens=4096,
            suffix_mean=512,
            output_mean=160,
            seed=seed,
        )
        plan = FailurePlan(
            events=(
                FailureEvent(time=crash_at, kind="crash", replica_index=0, duration=1.0),
                FailureEvent(
                    time=slow_at, kind="slow", replica_index=1, duration=2.0, slowdown=3.0
                ),
            )
        )

        def run(fast_forward):
            config = FleetConfig(
                gpus_per_replica=1,
                initial_replicas=2,
                max_replicas=3,
                tpot_cap=tpot_cap,
                prefix_caching=prefix_caching,
                fast_forward=fast_forward,
            )
            return FleetEngine(LLAMA_13B, config, "least-tokens", plan).run(trace, SLO())

        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            fast = run(True)
            naive = run(False)
        assert oracle.checked > 0
        assert _digest(fast) == _digest(naive)
        assert asdict(fast.fleet) == asdict(naive.fleet)

    def test_faults_in_the_middle_of_a_stretch(self):
        # Long decodes on one replica: the crash and the slow window both
        # land while a pre-planned stretch is in flight, so the stretch's
        # per-event advances and the crash path are both exercised.
        trace = replay_trace([(0.0, 512, 600), (0.0, 1024, 600), (0.1, 256, 600)])
        plan = FailurePlan(
            events=(
                FailureEvent(time=3.0, kind="slow", replica_index=0, duration=2.0, slowdown=2.5),
                FailureEvent(time=6.0, kind="crash", replica_index=0, duration=1.0),
            )
        )

        def run(fast_forward):
            config = FleetConfig(
                gpus_per_replica=1, initial_replicas=1, max_replicas=1, fast_forward=fast_forward
            )
            return FleetEngine(LLAMA_13B, config, failure_plan=plan).run(trace, SLO())

        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            fast = run(True)
            mid_stretch = oracle.mid_stretch_faults
            naive = run(False)
        assert mid_stretch == 2
        assert oracle.stretch_steps > 0
        assert fast.fleet.crashes == 1 and fast.fleet.slow_events == 1
        assert _digest(fast) == _digest(naive)


# ----------------------------------------------------------------------
# The 2^53 guard
# ----------------------------------------------------------------------
class TestExactnessGuard:
    def test_totals_fall_back_at_the_bound_and_rebuild_below_it(self):
        # Pairs just under 2^51 (and odd, so sums past 2^53 round): four
        # concurrent decodes cross the bound, the totals go inexact and
        # ``decode_flops`` returns the ordered fold; as requests finish, the
        # fold drops back below and re-arms the totals.
        big = 2.0 ** 51 - 1.0

        def flops_of(context):
            return big + 2.0 * context, float(context)

        allocator = PagedKVAllocator(total_blocks=64, block_tokens=16)
        batcher = ContinuousBatcher(allocator, decode_table=DecodeFlopsTable(flops_of))
        for index, output in enumerate((3, 5, 9, 17, 33)):
            request = Request(
                request_id=index, arrival_time=0.0, prompt_tokens=16, output_tokens=output
            )
            batcher.enqueue(RequestState(record=RequestRecord(request)))
        seen = set()
        now = 0.0
        while batcher.has_work:
            plan = batcher.plan()
            decodes = [s for s in batcher.running if s.phase is Phase.DECODE]
            reference = _fold(batcher, decodes)
            assert batcher.decode_flops() == reference
            exact = batcher._decode_exact
            seen.add((exact, len(decodes)))
            if plan.decode_flops is not None:
                assert exact and plan.decode_flops == reference
            now += 1.0
            batcher.commit(plan, now)
        assert {(False, 5), (False, 4)} <= seen  # past the bound: the fold
        assert {(True, 3), (True, 2), (True, 1)} <= seen  # back below: re-armed
        assert batcher.decode_count == 0
        assert batcher.decode_flops() == (0.0, 0.0) and batcher._decode_exact

    def test_iteration_sum_past_the_bound_takes_the_ordered_fold(self):
        # A prefill chunk past 2^55 (ulp 8) plus three odd decode pairs: the
        # ordered fold rounds every decode away, the one-shot sum of the
        # totals does not — so pricing must take the fold.
        pool = _Pool(get_model_config("llama-70b"), 16, ServingConfig(num_gpus=16))
        pool.batcher.decode_table = DecodeFlopsTable(lambda context: (3.0, 3.0))

        def state(request_id, prompt, prefilled=0, decoded=0):
            request = Request(
                request_id=request_id, arrival_time=0.0, prompt_tokens=prompt, output_tokens=8
            )
            return RequestState(
                record=RequestRecord(request), prefilled=prefilled, decoded=decoded
            )

        decodes = [state(index, 100 + index, decoded=1) for index in range(3)]
        totals = _fold(pool.batcher, decodes)
        plan = IterationPlan(
            prefill=[(state(9, 4_000_000, prefilled=2_000_000), 8192)],
            decode=decodes,
            decode_flops=totals,
        )
        linear, attention = _prefill_sum(pool, plan)
        shortcut = pool._pair_time(linear + totals[0], attention + totals[1], plan.batch_tokens)
        assert attention + totals[1] >= 4 * EXACT_FLOPS_BOUND
        for _ in decodes:
            linear += 3.0
            attention += 3.0
        reference = pool._pair_time(linear, attention, plan.batch_tokens)
        assert shortcut != reference  # the case discriminates
        assert pool.iteration_time(plan) == reference

    def test_summarize_512k_passes_the_bound_and_matches_the_naive_stepper(self):
        scenario = get_scenario("summarize-512k")
        assert scenario.model == "llama-70b"
        with pytest.MonkeyPatch.context() as mp:
            oracle = Oracle(mp)
            fast = run_scenario(scenario, seed=0)
            guarded = oracle.guarded
            naive = run_scenario(scenario, seed=0, fast_forward=False)
        assert guarded > 0 and oracle.priced > guarded
        assert _digest(fast) == _digest(naive)


def test_steady_decode_reserves_only_at_block_boundaries(monkeypatch):
    # A decoding request grows its reservation within its blocks by token
    # bookkeeping; ``reserve`` runs only when a step crosses a boundary.
    calls = []
    reserve = PagedKVAllocator.reserve

    def counting(allocator, request_id, tokens):
        calls.append(tokens)
        return reserve(allocator, request_id, tokens)

    monkeypatch.setattr(PagedKVAllocator, "reserve", counting)
    config = ServingConfig(num_gpus=1, fast_forward=False)
    result = ServingEngine(LLAMA_13B, config).run(replay_trace([(0.0, 100, 600)]), SLO())
    assert result.iterations == 600
    block = config.block_tokens
    # One admission reserve, then one per block crossed by the decode.
    assert calls == [100] + [t for t in range(101, 700) if (t - 1) % block == 0]
