"""Chunked KV cache manager (Section 5, "Chunked KV Cache").

SlimPipe stores keys and values in *slice-sized chunks* rather than one
contiguous, repeatedly re-allocated buffer.  Because uniform slicing makes
every chunk the same size, freed chunks can be reused verbatim by the next
microbatch — the backward pass of one microbatch releases a chunk exactly
when the forward pass of the next microbatch needs one — eliminating
allocator fragmentation.

This module implements that bookkeeping.  It is used in two ways:

* the numeric pipeline runner stores real NumPy key/value arrays in it, and
* the tests assert the allocation-reuse invariants the paper relies on
  (stable chunk count in the steady phase, zero fragmentation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

__all__ = ["KVChunk", "ChunkedKVCache", "KVCacheStats"]


@dataclass(slots=True)
class KVChunk:
    """One slice-sized chunk of cached keys and values.

    Serving allocates one of these per paged-KV block, so the record is kept
    slotted: large pools hold tens of thousands of live chunks.
    """

    chunk_id: int
    payload: Any = None

    def clear(self) -> None:
        self.payload = None


@dataclass(frozen=True)
class KVCacheStats:
    """Allocation statistics over the lifetime of a cache."""

    allocations: int
    reuses: int
    peak_live_chunks: int
    live_chunks: int

    @property
    def reuse_fraction(self) -> float:
        total = self.allocations + self.reuses
        return self.reuses / total if total else 0.0


class ChunkedKVCache:
    """Per-device KV cache holding one chunk per (microbatch, layer, slice).

    ``acquire`` is called by a forward pass to obtain a chunk (reusing a
    previously released one when possible); ``release`` is called by the
    matching backward pass.  ``capacity_chunks`` optionally caps the number
    of simultaneously live chunks, modelling the device memory budget.
    """

    def __init__(self, capacity_chunks: Optional[int] = None):
        if capacity_chunks is not None and capacity_chunks <= 0:
            raise ValueError("capacity_chunks must be positive when given")
        self.capacity_chunks = capacity_chunks
        self._live: Dict[Hashable, KVChunk] = {}
        self._free: List[KVChunk] = []
        self._next_id = 0
        self._allocations = 0
        self._reuses = 0
        self._peak_live = 0

    # ------------------------------------------------------------------
    def acquire(self, key: Hashable, payload: Any = None) -> KVChunk:
        """Obtain a chunk for ``key``, reusing a released chunk if available."""
        if key in self._live:
            raise KeyError(f"chunk for {key!r} is already live")
        if self.capacity_chunks is not None and len(self._live) >= self.capacity_chunks:
            raise MemoryError(
                f"KV cache capacity of {self.capacity_chunks} chunks exceeded"
            )
        if self._free:
            chunk = self._free.pop()
            self._reuses += 1
        else:
            chunk = KVChunk(chunk_id=self._next_id)
            self._next_id += 1
            self._allocations += 1
        chunk.payload = payload
        self._live[key] = chunk
        self._peak_live = max(self._peak_live, len(self._live))
        return chunk

    def get(self, key: Hashable) -> KVChunk:
        """Return the live chunk for ``key`` (e.g. to read cached K/V)."""
        try:
            return self._live[key]
        except KeyError:
            raise KeyError(f"no live chunk for {key!r}") from None

    def contains(self, key: Hashable) -> bool:
        return key in self._live

    def release(self, key: Hashable) -> None:
        """Release the chunk for ``key``, returning it to the free pool."""
        try:
            chunk = self._live.pop(key)
        except KeyError:
            raise KeyError(f"cannot release unknown chunk {key!r}") from None
        chunk.clear()
        self._free.append(chunk)

    def rename(self, old_key: Hashable, new_key: Hashable) -> KVChunk:
        """Re-home a live chunk under a new key, keeping its payload.

        Used by the serving prefix cache when a request-private KV block is
        *published* as a shared prefix block: ownership moves from the
        request to the prefix index without touching the chunk itself (no
        release/acquire churn, allocation statistics unchanged).
        """
        if new_key in self._live:
            raise KeyError(f"chunk for {new_key!r} is already live")
        try:
            chunk = self._live.pop(old_key)
        except KeyError:
            raise KeyError(f"cannot rename unknown chunk {old_key!r}") from None
        self._live[new_key] = chunk
        return chunk

    # ------------------------------------------------------------------
    @property
    def live_chunks(self) -> int:
        return len(self._live)

    @property
    def free_chunks(self) -> int:
        return len(self._free)

    @property
    def total_chunks(self) -> int:
        """Distinct buffers ever allocated — constant in the steady phase."""
        return self._next_id

    def stats(self) -> KVCacheStats:
        return KVCacheStats(
            allocations=self._allocations,
            reuses=self._reuses,
            peak_live_chunks=self._peak_live,
            live_chunks=len(self._live),
        )

    def clear(self) -> None:
        """Drop every chunk (end of iteration)."""
        self._live.clear()
        self._free.clear()
