"""Tests for the paged KV-cache allocator (repro.serving.paged_kv)."""

import pytest

from repro.serving.paged_kv import PagedKVAllocator, blocks_for_tokens


class TestBlocksForTokens:
    def test_rounding(self):
        assert blocks_for_tokens(0, 16) == 0
        assert blocks_for_tokens(1, 16) == 1
        assert blocks_for_tokens(16, 16) == 1
        assert blocks_for_tokens(17, 16) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            blocks_for_tokens(-1, 16)
        with pytest.raises(ValueError):
            blocks_for_tokens(4, 0)


class TestReserve:
    def test_lazy_block_growth(self):
        alloc = PagedKVAllocator(total_blocks=10, block_tokens=16)
        assert alloc.reserve("a", 10)
        assert alloc.used_blocks == 1
        assert alloc.reserve("a", 16)  # still one block
        assert alloc.used_blocks == 1
        assert alloc.reserve("a", 17)  # crosses a block boundary
        assert alloc.used_blocks == 2
        assert alloc.tokens_of("a") == 17
        assert len(alloc.block_table("a")) == 2

    def test_reserve_shrink_rejected(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.reserve("a", 32)
        with pytest.raises(ValueError):
            alloc.reserve("a", 16)

    def test_capacity_refusal_has_no_side_effects(self):
        alloc = PagedKVAllocator(total_blocks=4, block_tokens=16)
        assert alloc.reserve("a", 48)  # 3 blocks
        assert not alloc.reserve("b", 32)  # needs 2, only 1 free
        assert alloc.used_blocks == 3
        assert not alloc.holds("b")
        assert alloc.reserve("b", 16)

    def test_release_frees_blocks(self):
        alloc = PagedKVAllocator(4, 16)
        alloc.reserve("a", 64)
        assert alloc.free_blocks == 0
        assert alloc.release("a") == 4
        assert alloc.free_blocks == 4
        assert alloc.release("a") == 0  # idempotent

    def test_evict_counts(self):
        alloc = PagedKVAllocator(4, 16)
        alloc.reserve("a", 16)
        alloc.evict("a")
        assert alloc.evictions == 1
        alloc.evict("missing")
        assert alloc.evictions == 1


class TestBulkReserveDecode:
    """The decode-stretch growth equals one ``reserve`` per request, in order."""

    @pytest.mark.parametrize("block_tokens", [1, 4, 16])
    def test_matches_serial_reserves(self, block_tokens):
        # Every residue of the starting reservation against every growth of
        # up to two blocks, many requests at once (chunk-acquisition order).
        counts = range(1, 3 * block_tokens + 2)
        for steps in range(1, 2 * block_tokens + 2):
            bulk = PagedKVAllocator(total_blocks=1024, block_tokens=block_tokens)
            serial = PagedKVAllocator(total_blocks=1024, block_tokens=block_tokens)
            for rid, count in enumerate(counts):
                assert bulk.reserve(rid, count) and serial.reserve(rid, count)
            bulk.bulk_reserve_decode(list(range(len(counts))), steps)
            for rid in range(len(counts)):
                assert serial.reserve(rid, serial.tokens_of(rid) + steps)
            for rid in range(len(counts)):
                assert bulk.tokens_of(rid) == serial.tokens_of(rid)
                assert bulk.block_table(rid) == serial.block_table(rid)
            assert bulk.stored_tokens == serial.stored_tokens
            assert bulk.free_blocks == serial.free_blocks


class TestStats:
    def test_utilization_and_fragmentation(self):
        alloc = PagedKVAllocator(total_blocks=8, block_tokens=16)
        alloc.reserve("a", 24)  # 2 blocks, 24 of 32 slots
        stats = alloc.stats()
        assert stats.used_blocks == 2
        assert stats.free_blocks == 6
        assert stats.block_utilization == pytest.approx(0.25)
        assert stats.token_utilization == pytest.approx(24 / 128)
        assert stats.internal_fragmentation == pytest.approx(8 / 32)

    def test_chunk_reuse_passthrough(self):
        alloc = PagedKVAllocator(8, 16)
        alloc.reserve("a", 64)
        alloc.release("a")
        alloc.reserve("b", 64)
        stats = alloc.stats()
        assert stats.cache.allocations == 4
        assert stats.cache.reuses == 4
        assert stats.cache.reuse_fraction == pytest.approx(0.5)

    def test_clear(self):
        alloc = PagedKVAllocator(8, 16)
        alloc.reserve("a", 64)
        alloc.reserve("b", 32)
        alloc.clear()
        assert alloc.used_blocks == 0
        assert alloc.stored_tokens == 0
