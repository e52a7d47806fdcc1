"""Shared-prefix KV caching invariants.

The prefix cache is only allowed to *skip work*, never to change what a
request observes or to corrupt the allocator's bookkeeping.  This suite pins
the contracts the tentpole relies on:

* **Block-key radix semantics** — ``prefix_block_keys`` maps symbolic
  prefixes onto block-granular content keys that agree exactly on shared
  paths and diverge at the first differing segment.
* **Refcount conservation** — node refcounts equal live references across
  admission, preemption, finish and fleet crashes.
* **Eviction safety** — LRU reclamation never frees a referenced block, and
  a reservation that would need referenced blocks fails instead.
* **Hit-rate arithmetic** — the reported hit rate matches a hand-computed
  trace token for token.
* **Off means off** — with ``prefix_caching=False`` a trace with declared
  prefixes is byte-identical to the same trace with prefixes stripped.
"""

from dataclasses import asdict, replace

import pytest

from repro.model.config import get_model_config
from repro.obs.events import EventRecorder
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.metrics import SLO
from repro.serving.paged_kv import PagedKVAllocator
from repro.serving.prefix_cache import PrefixCache, prefix_block_keys
from repro.serving.workload import Request, agentic_tree_trace, shared_prefix_trace
from repro.fleet.cluster import FleetConfig, FleetEngine
from repro.fleet.failures import FailureEvent, FailurePlan

from test_fast_forward_equivalence import iteration_ends

LLAMA_13B = get_model_config("llama-13b")


# ===========================================================================
# prefix_block_keys: the radix content-key scheme
# ===========================================================================
class TestPrefixBlockKeys:
    def test_single_segment_full_blocks_only(self):
        keys = prefix_block_keys((("sys", 1000),), 256)
        # 1000 tokens cover three full 256-token blocks; the partial tail
        # block is not shareable.
        assert len(keys) == 3
        assert keys[0] == (("sys",), 0)
        assert keys[2] == (("sys",), 2)

    def test_shared_path_agrees_divergent_path_does_not(self):
        a = prefix_block_keys((("sys", 512), (("doc", 1), 512)), 256)
        b = prefix_block_keys((("sys", 512), (("doc", 2), 512)), 256)
        assert a[:2] == b[:2]  # the system-prompt blocks are shared
        assert a[2] != b[2]  # the first document block diverges
        assert len(a) == 4

    def test_segment_spanning_a_block_boundary_chains_the_path(self):
        # 300 + 300 tokens: block 0 is covered by segment "a" alone, block 1
        # needs both segments — its key embeds the two-segment path.
        keys = prefix_block_keys((("a", 300), ("b", 300)), 256)
        assert keys[0] == (("a",), 0)
        assert keys[1] == (("a", "b"), 1)

    def test_empty_prefix_and_bad_block_size(self):
        assert prefix_block_keys((), 256) == ()
        with pytest.raises(ValueError):
            prefix_block_keys((("a", 10),), 0)


# ===========================================================================
# PrefixCache: trie, refcounts, LRU
# ===========================================================================
class TestPrefixCacheUnit:
    def _keys(self, n):
        return prefix_block_keys((("sys", 256 * n),), 256)

    def _publish_chain(self, cache, rid, keys):
        for i, key in enumerate(keys):
            cache.publish(rid, key, ("pfx", key))

    def test_acquire_release_refcounts_conserve(self):
        cache = PrefixCache()
        keys = self._keys(3)
        self._publish_chain(cache, "r1", keys)
        assert cache.refs_of("r1") == 3
        assert cache.acquire("r2", keys) == 3
        assert cache.check_refcounts()
        cache.release("r1")
        assert cache.check_refcounts()
        assert cache.evictable_blocks == 0  # r2 still references everything
        cache.release("r2")
        assert cache.evictable_blocks == 3
        assert cache.check_refcounts()

    def test_longest_prefix_match_stops_at_first_miss(self):
        cache = PrefixCache()
        keys = self._keys(4)
        self._publish_chain(cache, "r1", keys[:2])
        assert cache.match(keys) == 2
        assert cache.acquire("r2", keys) == 2
        assert cache.refs_of("r2") == 2

    def test_double_acquire_rejected(self):
        cache = PrefixCache()
        keys = self._keys(2)
        self._publish_chain(cache, "r1", keys)
        cache.acquire("r2", keys)
        with pytest.raises(ValueError):
            cache.acquire("r2", keys)

    def test_eviction_is_lru_and_leaf_first(self):
        cache = PrefixCache()
        short = prefix_block_keys((("a", 512),), 256)
        long = prefix_block_keys((("b", 768),), 256)
        self._publish_chain(cache, "r1", short)
        self._publish_chain(cache, "r2", long)
        cache.release("r1")  # "a" chain unreferenced first -> older in LRU
        cache.release("r2")
        freed = cache.evict(2)
        # LRU order reclaims the "a" chain first; within it leaves go first,
        # so the chunk keys come back deepest-block-first.
        assert freed == [("pfx", short[1]), ("pfx", short[0])]
        assert cache.match(short) == 0
        assert cache.match(long) == 3
        assert cache.check_refcounts()

    def test_evict_never_touches_referenced_blocks(self):
        cache = PrefixCache()
        keys = self._keys(3)
        self._publish_chain(cache, "r1", keys)
        assert cache.evict(3) == []  # everything referenced: nothing to take
        cache.release("r1")
        cache.acquire("r2", keys[:2])  # re-reference the leading two
        freed = cache.evict(3)
        assert freed == [("pfx", keys[2])]  # only the unreferenced tail
        assert cache.refs_of("r2") == 2
        assert cache.check_refcounts()

    def test_publish_dedup_references_the_existing_node(self):
        cache = PrefixCache()
        keys = self._keys(1)
        assert cache.publish("r1", keys[0], ("pfx", keys[0])) is True
        assert cache.publish("r2", keys[0], ("dup", keys[0])) is False
        assert cache.dedup_blocks == 1
        assert cache.check_refcounts()


# ===========================================================================
# Allocator-level safety under memory pressure
# ===========================================================================
class TestAllocatorPrefixPressure:
    def _allocator_with_published_prefix(self, blocks=8, block_tokens=4):
        alloc = PagedKVAllocator(blocks, block_tokens, prefix_caching=True)
        keys = prefix_block_keys((("sys", 4 * block_tokens),), block_tokens)
        assert alloc.acquire_prefix("a", keys) == 0  # cold cache
        assert alloc.reserve("a", 4 * block_tokens)
        assert alloc.publish_prefix("a", keys, 4 * block_tokens) == 4
        return alloc, keys

    def test_reserve_fails_rather_than_free_referenced_blocks(self):
        alloc, keys = self._allocator_with_published_prefix()
        assert alloc.acquire_prefix("b", keys) == 4  # b pins the prefix
        alloc.release("a")
        # 4 of 8 blocks are referenced by b; a 5-block private reservation
        # must fail without touching them.
        assert not alloc.reserve("c", 5 * 4)
        assert alloc.prefix.match(keys) == 4
        assert alloc.prefix.check_refcounts()
        assert alloc.reserve("c", 4 * 4)  # exactly the free space works

    def test_reserve_reclaims_unreferenced_blocks_lru_first(self):
        alloc, keys = self._allocator_with_published_prefix()
        alloc.release("a")  # prefix now unreferenced but resident
        assert alloc.reclaimable_blocks == 4
        stored_before = alloc.stored_tokens
        assert alloc.reserve("c", 7 * 4)  # needs 7 blocks: reclaims 3
        assert alloc.prefix.evicted_blocks == 3
        assert alloc.stored_tokens == stored_before - 3 * 4 + 7 * 4
        assert alloc.prefix.check_refcounts()

    def test_release_keeps_physical_token_accounting_exact(self):
        alloc, keys = self._allocator_with_published_prefix()
        assert alloc.acquire_prefix("b", keys) == 4
        assert alloc.reserve("b", 4 * 4 + 3)  # shared span + 3 private tokens
        assert alloc.stored_tokens == 4 * 4 + 3  # shared counted once
        alloc.release("a")
        assert alloc.stored_tokens == 4 * 4 + 3
        alloc.release("b")
        assert alloc.stored_tokens == 4 * 4  # resident unreferenced prefix
        alloc.clear()
        assert alloc.stored_tokens == 0
        assert alloc.used_blocks == 0


# ===========================================================================
# Engine-level invariants
# ===========================================================================
def _engine(prefix_caching=True, **config_kwargs):
    config = ServingConfig(num_gpus=1, prefix_caching=prefix_caching, **config_kwargs)
    return ServingEngine(LLAMA_13B, config)


def serving_digest(result, recorder):
    return (
        asdict(result.metrics),
        [
            (r.request.request_id, r.first_token_time, r.finish_time, r.preemptions)
            for r in result.records
        ],
        result.iterations,
        result.tokens_admitted,
        result.tokens_prefilled,
        result.tokens_preempted_requeued,
        result.preemptions,
        iteration_ends(recorder),
    )


class TestEngineInvariants:
    def test_hit_rate_matches_hand_computed_trace(self):
        # Three sequential requests sharing a 1024-token system prompt with
        # 256-token blocks: the first misses all 4 prefix blocks, the other
        # two hit all 4 -> 2 * 1024 cached tokens, everything else prefilled.
        prefix = (("sys", 1024),)
        trace = [
            Request(i, 50.0 * i, 1024 + 256, 8, prefix=prefix) for i in range(3)
        ]
        result = _engine().run(trace, SLO())
        assert result.prefix_hit_tokens == 2 * 1024
        assert result.prefix_hit_requests == 2
        total_prompt = 3 * 1280
        assert result.tokens_prefilled == total_prompt - 2048
        assert result.metrics.prefix_hit_rate == 2048 / total_prompt
        assert result.prefix_hit_rate == 2048 / total_prompt
        assert result.token_accounting_balanced

    def test_refcounts_conserve_and_drain_after_run(self):
        trace = shared_prefix_trace(
            num_requests=40, arrival_rate=3.0, prefix_tokens=2048,
            suffix_mean=128, output_mean=64, seed=1,
        )
        engine = _engine()
        result = engine.run(trace, SLO())
        cache = engine.pool.allocator.prefix
        assert cache.check_refcounts()
        assert cache.referenced_requests() == []  # every request released
        assert result.prefix_hit_tokens > 0

    def test_preemption_pressure_conserves_refcounts_and_tokens(self):
        # Near-simultaneous long decodes oversubscribe the 1-GPU KV pool
        # even with the prefix shared, forcing preempt/requeue cycles
        # through the prefix-held admission path.
        trace = [
            Request(i, 0.001 * i, 4096 + 128, 4096, prefix=(("sys", 4096),))
            for i in range(16)
        ]
        engine = _engine()
        result = engine.run(trace, SLO())
        assert result.preemptions > 0
        cache = engine.pool.allocator.prefix
        assert cache.check_refcounts()
        assert cache.referenced_requests() == []
        assert result.token_accounting_balanced
        # Preempted requests re-match the shared prefix on re-admission, so
        # hits exceed the one-per-request of the happy path.
        assert result.prefix_hit_requests > 15

    def test_concurrent_identical_prefixes_dedup_copy_on_write(self):
        # Both requests are admitted in the same iteration, prefill the same
        # prefix privately, and the second publication dedups block-by-block.
        trace = [Request(i, 0.0, 1024 + 64, 8, prefix=(("sys", 1024),)) for i in range(2)]
        engine = _engine()
        engine.run(trace, SLO())
        cache = engine.pool.allocator.prefix
        assert cache.dedup_blocks > 0
        assert cache.check_refcounts()

    def test_prefix_caching_off_ignores_declared_prefixes(self):
        # With the feature off, a trace with prefixes must be byte-identical
        # to the same trace with every prefix stripped.
        trace = agentic_tree_trace(
            num_sessions=4, turns_per_session=4, scaffold_tokens=2048,
            turn_tokens=256, output_mean=64, seed=3,
        )
        stripped = [replace(r, prefix=()) for r in trace]
        recorders = EventRecorder(), EventRecorder()
        with_prefix = _engine(prefix_caching=False, observe=recorders[0]).run(trace, SLO())
        without = _engine(prefix_caching=False, observe=recorders[1]).run(stripped, SLO())
        assert serving_digest(with_prefix, recorders[0]) == serving_digest(without, recorders[1])
        assert with_prefix.prefix_hit_tokens == 0

    def test_cached_blocks_shorten_ttft(self):
        prefix = (("sys", 8192),)
        trace = [Request(i, 30.0 * i, 8192 + 256, 16, prefix=prefix) for i in range(4)]
        on = _engine().run(trace, SLO())
        off = _engine(prefix_caching=False).run(trace, SLO())
        first = on.records[0].ttft
        later = [r.ttft for r in on.records[1:]]
        assert all(t < first / 2 for t in later)  # hits skip the 8K prefill
        assert off.records[1].ttft > on.records[1].ttft * 2


class TestFleetCrashInvariants:
    def test_crash_storms_conserve_refcounts_and_accounting(self):
        trace = shared_prefix_trace(
            num_requests=60, arrival_rate=4.0, prefix_tokens=4096,
            suffix_mean=128, output_mean=96, seed=2,
        )
        plan = FailurePlan(
            events=(
                FailureEvent(time=4.0, kind="crash", replica_index=0, duration=10.0),
                FailureEvent(time=9.0, kind="crash", replica_index=1, duration=10.0),
                FailureEvent(time=14.0, kind="slow", replica_index=0, duration=8.0, slowdown=2.0),
            )
        )
        config = FleetConfig(
            gpus_per_replica=1, initial_replicas=3, prefix_caching=True
        )
        engine = FleetEngine(LLAMA_13B, config, router="kv-aware", failure_plan=plan)
        result = engine.run(trace, SLO())
        assert result.fleet.crashes == 2
        assert result.token_accounting_balanced
        assert result.prefix_hit_tokens > 0
        for replica in engine._replicas:
            if replica.pool is None:
                continue
            cache = replica.pool.allocator.prefix
            assert cache.check_refcounts()
            assert cache.referenced_requests() == []
