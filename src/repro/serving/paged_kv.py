"""Paged KV-cache allocator for serving, built on :class:`ChunkedKVCache`.

Training-side SlimPipe stores keys/values in uniform slice-sized chunks so
that freed chunks are reused verbatim (Section 5).  Serving needs the same
trick at request granularity: a request's KV cache grows one token at a time
during decode, requests finish (or are preempted) in arbitrary order, and a
naive contiguous allocator would fragment immediately.  This module reuses
the training :class:`~repro.core.kv_cache.ChunkedKVCache` as the block pool —
every block is one fixed-size chunk, so the zero-fragmentation reuse
invariants carry over — and adds the serving-side bookkeeping on top:

* a **block table** per request (ordered list of chunk keys),
* token-granular **reserve/append** (blocks are acquired lazily as the
  request's context crosses block boundaries),
* **eviction/preemption** accounting, used by the batcher when decode can no
  longer grow a context and a victim must be re-queued,
* optional **shared-prefix caching** (``prefix_caching=True``): the leading
  blocks of a request's context can reference blocks published to a
  :class:`~repro.serving.prefix_cache.PrefixCache` radix tree instead of
  private copies.  Sharing is copy-on-write at block granularity (decode
  tokens and uncached prompt tails always land in private blocks), shared
  blocks are reference-counted, and unreferenced shared blocks stay resident
  until the pool actually needs the space — at which point :meth:`reserve`
  reclaims them least-recently-used first, before any live request is
  preempted.  With ``prefix_caching=False`` (the default) every code path is
  byte-identical to the pre-prefix allocator.

Capacity is expressed in blocks; :func:`blocks_for_tokens` converts.
``stored_tokens`` counts *physical* tokens: a shared block's tokens count
once no matter how many requests reference it, so KV-utilization metrics
keep meaning memory occupancy (logical context can exceed capacity when
sharing is high — that surplus is exactly the effective-capacity gain the
fleet autoscaler observes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.kv_cache import ChunkedKVCache, KVCacheStats
from .prefix_cache import PrefixCache, PrefixCacheStats

__all__ = ["PagedKVAllocator", "PagedKVStats", "blocks_for_tokens"]


def blocks_for_tokens(tokens: int, block_tokens: int) -> int:
    """Number of fixed-size blocks needed to hold ``tokens`` tokens."""
    if tokens < 0:
        raise ValueError("tokens must be non-negative")
    if block_tokens < 1:
        raise ValueError("block_tokens must be >= 1")
    return -(-tokens // block_tokens)


@dataclass(frozen=True)
class PagedKVStats:
    """Point-in-time snapshot of allocator occupancy."""

    total_blocks: int
    used_blocks: int
    stored_tokens: int
    block_tokens: int
    evictions: int
    cache: KVCacheStats
    prefix: Optional[PrefixCacheStats] = None

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.used_blocks

    @property
    def block_utilization(self) -> float:
        """Fraction of the block pool currently allocated."""
        return self.used_blocks / self.total_blocks if self.total_blocks else 0.0

    @property
    def token_utilization(self) -> float:
        """Fraction of pool *token* capacity holding real tokens."""
        capacity = self.total_blocks * self.block_tokens
        return self.stored_tokens / capacity if capacity else 0.0

    @property
    def internal_fragmentation(self) -> float:
        """Unused tail space inside allocated blocks, as a fraction."""
        allocated = self.used_blocks * self.block_tokens
        if allocated == 0:
            return 0.0
        return 1.0 - self.stored_tokens / allocated


class PagedKVAllocator:
    """Block-table allocator multiplexing requests over a chunk pool."""

    def __init__(self, total_blocks: int, block_tokens: int, prefix_caching: bool = False):
        if total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        self.total_blocks = total_blocks
        self.block_tokens = block_tokens
        self._cache = ChunkedKVCache(capacity_chunks=total_blocks)
        self._tables: Dict[Hashable, List[Tuple[Hashable, int]]] = {}
        self._tokens: Dict[Hashable, int] = {}
        # Monotonic per-request private-block key counter: publication pops
        # leading table entries, so ``len(table)`` would recycle keys.  With
        # prefix caching off the counter always equals ``len(table)``.
        self._next_key: Dict[Hashable, int] = {}
        self._stored = 0  # incremental physical token count (int, hence exact)
        self._evictions = 0
        self.prefix: Optional[PrefixCache] = PrefixCache() if prefix_caching else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def prefix_caching(self) -> bool:
        return self.prefix is not None

    @property
    def used_blocks(self) -> int:
        return self._cache.live_chunks

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._cache.live_chunks

    @property
    def reclaimable_blocks(self) -> int:
        """Unreferenced shared prefix blocks :meth:`reserve` may reclaim."""
        return self.prefix.evictable_blocks if self.prefix is not None else 0

    @property
    def stored_tokens(self) -> int:
        return self._stored

    @property
    def token_utilization(self) -> float:
        """Fraction of pool *token* capacity holding real tokens (O(1))."""
        capacity = self.total_blocks * self.block_tokens
        return self._stored / capacity if capacity else 0.0

    @property
    def evictions(self) -> int:
        return self._evictions

    def tokens_of(self, request_id: Hashable) -> int:
        return self._tokens.get(request_id, 0)

    def blocks_held(self, request_id: Hashable) -> int:
        """Blocks backing the request's reservation (shared refs + private)."""
        held = len(self._tables.get(request_id, ()))
        if self.prefix is not None:
            held += self.prefix.refs_of(request_id)
        return held

    def block_table(self, request_id: Hashable) -> List[Tuple[Hashable, int]]:
        """The request's ordered private ``(key, chunk_id)`` block table."""
        return list(self._tables.get(request_id, ()))

    def holds(self, request_id: Hashable) -> bool:
        if request_id in self._tables:
            return True
        return self.prefix is not None and self.prefix.refs_of(request_id) > 0

    # ------------------------------------------------------------------
    # Shared-prefix operations (no-ops when ``prefix_caching=False``)
    # ------------------------------------------------------------------
    def match_prefix(self, keys: Sequence[Hashable]) -> int:
        """Read-only longest-prefix match over the shared-block index."""
        if self.prefix is None or not keys:
            return 0
        return self.prefix.match(keys)

    def acquire_prefix(
        self, request_id: Hashable, keys: Sequence[Hashable], max_blocks: Optional[int] = None
    ) -> int:
        """Reference the leading cached blocks of ``keys`` for a fresh request.

        Must run before the request's first :meth:`reserve` (its context is
        still empty); the matched span becomes the request's leading blocks
        and its token reservation starts at ``matched * block_tokens``.
        ``max_blocks`` caps the hit (callers keep at least one prompt token
        uncached so the request still samples its first output token).
        Returns the number of blocks referenced.
        """
        if self.prefix is None or not keys:
            return 0
        if self.holds(request_id) or request_id in self._tokens:
            raise ValueError(
                f"acquire_prefix({request_id!r}) requires an empty reservation"
            )
        if max_blocks is not None:
            keys = keys[: max(0, max_blocks)]
        matched = self.prefix.acquire(request_id, keys)
        if matched:
            # The referenced tokens are already resident (counted when first
            # published), so the physical store does not change.
            self._tokens[request_id] = matched * self.block_tokens
        return matched

    def publish_prefix(
        self, request_id: Hashable, keys: Sequence[Hashable], prefilled_tokens: int
    ) -> int:
        """Publish the request's freshly prefilled leading blocks for sharing.

        Called after prefill progress: every not-yet-shared prefix block now
        fully covered by ``prefilled_tokens`` is handed over to the prefix
        tree — the private chunk is re-homed under the content key, or freed
        when a concurrent twin already published the same block (dedup).
        Returns the number of blocks published or deduplicated.
        """
        cache = self.prefix
        if cache is None or not keys:
            return 0
        refs = cache.refs_of(request_id)
        if refs >= len(keys):
            return 0
        table = self._tables.get(request_id)
        block_tokens = self.block_tokens
        moved = 0
        while refs < len(keys) and (refs + 1) * block_tokens <= prefilled_tokens:
            if not table:
                break  # defensive: nothing private left to publish
            private_key, _ = table[0]
            content_key = keys[refs]
            chunk_key = ("pfx", content_key)
            if cache.publish(request_id, content_key, chunk_key):
                self._cache.rename(private_key, chunk_key)
            else:
                # A twin published this block first; our copy is redundant.
                self._cache.release(private_key)
                self._stored -= block_tokens
            table.pop(0)
            refs += 1
            moved += 1
        return moved

    def _reclaim(self, blocks: int) -> int:
        """Evict unreferenced shared blocks to free at least ``blocks``."""
        if self.prefix is None:
            return 0
        freed = self.prefix.evict(blocks)
        for chunk_key in freed:
            self._cache.release(chunk_key)
        self._stored -= len(freed) * self.block_tokens
        return len(freed)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def reserve(self, request_id: Hashable, new_total_tokens: int) -> bool:
        """Grow the request's reservation to cover ``new_total_tokens``.

        Acquires exactly the blocks the growth needs (reusing freed chunks
        through the underlying cache, reclaiming unreferenced shared prefix
        blocks LRU-first when the pool is short) and returns ``True``;
        returns ``False`` without side effects when the pool cannot satisfy
        the growth — the batcher then either waits or preempts a victim.
        """
        if new_total_tokens < 0:
            raise ValueError("new_total_tokens must be non-negative")
        current = self._tokens.get(request_id, 0)
        if new_total_tokens < current:
            raise ValueError(
                f"cannot shrink reservation of {request_id!r} "
                f"({current} -> {new_total_tokens} tokens); use release()"
            )
        refs = self.prefix.refs_of(request_id) if self.prefix is not None else 0
        table = self._tables.get(request_id)
        have = len(table) if table is not None else 0
        target_private = blocks_for_tokens(new_total_tokens, self.block_tokens) - refs
        need = target_private - have
        if need > self.free_blocks:
            if need > self.free_blocks + self.reclaimable_blocks:
                return False
            self._reclaim(need - self.free_blocks)
            if need > self.free_blocks:
                return False  # defensive: reclaim came up short
        if table is None:
            table = self._tables.setdefault(request_id, [])
        next_key = self._next_key.get(request_id, 0)
        while len(table) < target_private:
            key = (request_id, next_key)
            next_key += 1
            chunk = self._cache.acquire(key)
            table.append((key, chunk.chunk_id))
        self._next_key[request_id] = next_key
        self._tokens[request_id] = new_total_tokens
        self._stored += new_total_tokens - current
        return True

    def grow_in_place(self, request_id: Hashable, new_total_tokens: int) -> bool:
        """Grow a reservation within the blocks it already holds.

        Exactly :meth:`reserve`'s bookkeeping for a growth that needs no
        block (the common decode step: a request crosses a block boundary
        once every ``block_tokens`` tokens).  Returns ``False`` without side
        effects when the growth needs a block, or when the request holds no
        private table yet — the caller then goes through :meth:`reserve`.
        """
        table = self._tables.get(request_id)
        if table is None:
            return False
        current = self._tokens[request_id]
        held = len(table)
        if self.prefix is not None:
            held += self.prefix.refs_of(request_id)
        if not current <= new_total_tokens <= held * self.block_tokens:
            return False
        self._tokens[request_id] = new_total_tokens
        self._stored += new_total_tokens - current
        return True

    def bulk_reserve_decode(self, request_ids: Sequence[Hashable], steps: int) -> None:
        """Grow each decode reservation by ``steps`` tokens (decode stretches).

        Equivalent to calling :meth:`reserve` with ``tokens_of(rid) + steps``
        once per request in order — same chunk-acquisition order, same
        sequential private keys, same integer ``stored_tokens`` bookkeeping —
        in one pass that computes each new total and its extra blocks,
        without the per-call admission checks.  The caller (a pool's decode
        stretch) must have verified the pool absorbs the growth without
        reclaiming shared blocks; an oversubscribed growth therefore raises
        ``MemoryError`` from the chunk pool instead of returning ``False``.
        """
        tokens = self._tokens
        tables = self._tables
        next_keys = self._next_key
        cache = self._cache
        prefix = self.prefix
        block_tokens = self.block_tokens
        for request_id in request_ids:
            current = tokens[request_id]
            new_total = current + steps
            tokens[request_id] = new_total
            if (current - 1) // block_tokens == (new_total - 1) // block_tokens:
                continue  # the blocks backing ``current`` tokens cover the growth
            table = tables[request_id]
            held = len(table) + (prefix.refs_of(request_id) if prefix is not None else 0)
            extra = (new_total + block_tokens - 1) // block_tokens - held
            if extra > 0:
                next_key = next_keys.get(request_id, 0)
                for _ in range(extra):
                    key = (request_id, next_key)
                    next_key += 1
                    chunk = cache.acquire(key)
                    table.append((key, chunk.chunk_id))
                next_keys[request_id] = next_key
        self._stored += steps * len(request_ids)

    def release(self, request_id: Hashable) -> int:
        """Free a finished request's blocks; returns blocks released.

        Private blocks return to the pool; shared prefix references are
        dropped (the blocks stay resident for future hits until the pool
        reclaims them).  The return value counts both.
        """
        table = self._tables.pop(request_id, None)
        refs = 0
        if self.prefix is not None:
            refs = self.prefix.release(request_id)
        if table is None and refs == 0:
            return 0
        for key, _ in table or ():
            self._cache.release(key)
        self._stored -= self._tokens.pop(request_id, 0) - refs * self.block_tokens
        self._next_key.pop(request_id, None)
        return len(table or ()) + refs

    def evict(self, request_id: Hashable) -> int:
        """Free a *victim's* blocks (preemption); counted separately."""
        freed = self.release(request_id)
        if freed:
            self._evictions += 1
        return freed

    def clear(self) -> None:
        for request_id in list(self._tables):
            self.release(request_id)
        if self.prefix is not None:
            for request_id in self.prefix.referenced_requests():
                self.release(request_id)
            self._reclaim(self.prefix.evictable_blocks)

    # ------------------------------------------------------------------
    def stats(self) -> PagedKVStats:
        return PagedKVStats(
            total_blocks=self.total_blocks,
            used_blocks=self.used_blocks,
            stored_tokens=self.stored_tokens,
            block_tokens=self.block_tokens,
            evictions=self._evictions,
            cache=self._cache.stats(),
            prefix=self.prefix.stats() if self.prefix is not None else None,
        )
