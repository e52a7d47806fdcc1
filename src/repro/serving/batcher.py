"""Continuous-batching scheduler with chunked prefill and preemption.

The batcher owns the request lifecycle inside one GPU pool.  Every engine
iteration it produces an :class:`IterationPlan` — the decode steps plus the
prefill chunks the iteration executes — under three constraints:

* a **token budget**: decode tokens are planned first (one per running
  request), then prefill chunks fill the remaining ``prefill_budget`` the
  engine hands in (the engine shrinks that budget below
  ``max_batch_tokens`` when protecting the TPOT SLO of running decodes);
* **paged-KV admission**: a request is only admitted, and a context only
  grown, when the :class:`~repro.serving.paged_kv.PagedKVAllocator` can
  reserve the blocks; when a decode step cannot grow its context the
  newest / lowest-priority running request is **preempted** — its blocks are
  evicted and it re-enters the queue to re-prefill its full context;
* an **admission policy**: ``fcfs`` (arrival order, preempted requests
  re-queued at the front), ``priority`` (lowest ``Request.priority``
  first, arrival time as tie-break), or ``fair`` — weighted fair queueing
  across tenants by **virtual token counters**: every tenant accrues
  virtual time proportional to the tokens admitted on its behalf divided by
  its fair-share weight, and admission always picks the waiting request of
  the tenant with the smallest counter (arrival time, then request id, as
  tie-breaks).  A tenant idle at enqueue time has its counter lifted to the
  minimum over the active tenants, so idleness banks no credit.  With a
  single tenant (or no tenant tags at all) every request shares one counter
  and ``fair`` degenerates to exact FCFS order — the byte-identity property
  ``tests/test_tenancy_properties.py`` pins down.

When a :class:`~repro.serving.tenancy.TenancyConfig` is installed, two more
mechanisms switch on: per-tenant **token-bucket admission control** (a
request is only admitted once its tenant's bucket holds its total token
footprint; the ``fair`` policy skips blocked tenants, ``fcfs``/``priority``
block at the head) and **preemption-cost ordering** (victims are chosen
lowest SLO-class cost first, so best-effort work is evicted before batch,
and batch before interactive).

Token accounting
----------------
The batcher maintains three counters that the serving tests pin down as an
exact conservation law once a trace has fully drained::

    tokens_admitted == tokens_prefilled + tokens_preempted_requeued

``tokens_admitted`` grows by a request's outstanding prefill target at every
(re-)admission, ``tokens_prefilled`` by every prefill chunk executed
(including work later discarded by a preemption), and
``tokens_preempted_requeued`` by the admitted-but-not-yet-prefilled remainder
a preemption sends back to the queue.

Decode-FLOPs totals
-------------------
When the owning pool installs a :class:`DecodeFlopsTable`, the batcher keeps
running ``(linear, attention)`` totals over its DECODE-phase requests at
their current contexts, updated by exact deltas wherever ``decoded`` or
``phase`` changes (prefill completion, decode commit, finish, preemption,
decode-only admission and :meth:`ContinuousBatcher.advance_decodes`, which
the engines' stretch commits call).  Every FLOPs component is an
integer-valued float, so while a total stays below
:data:`EXACT_FLOPS_BOUND` (2^53) it equals the ordered per-iteration fold
bit for bit, in any order.  At or above the bound the totals are marked
inexact and :meth:`ContinuousBatcher.decode_flops` falls back to the ordered
fold, re-arming the totals from it once the fold is back below the bound.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..obs import events as obs_events
from ..obs.events import EventRecorder
from .metrics import RequestRecord
from .paged_kv import PagedKVAllocator, blocks_for_tokens
from .prefix_cache import prefix_block_keys
from .tenancy import TenancyConfig, TokenBucket
from .workload import Request

__all__ = [
    "Phase",
    "RequestState",
    "BatcherConfig",
    "IterationPlan",
    "ContinuousBatcher",
    "DecodeFlopsTable",
    "EXACT_FLOPS_BOUND",
]

#: Sums of integer-valued floats are exact — hence independent of summation
#: order — while every partial sum stays below this bound.
EXACT_FLOPS_BOUND = 2.0 ** 53


class Phase(Enum):
    """Lifecycle phase of a request inside one pool."""

    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    HANDOFF = "handoff"  # prefill-only pool: context ready for transfer
    FINISHED = "finished"


@dataclass(slots=True, eq=False)
class RequestState:
    """Mutable per-request scheduling state (one per request per pool).

    Slotted and compared by identity: the schedulers track these objects in
    queues and plans (``state in self.running`` means *this* state, never a
    value-equal twin), and the engines touch every running state on every
    iteration, so attribute access and membership tests are on the hot path.
    """

    record: RequestRecord
    phase: Phase = Phase.WAITING
    prefill_target: int = 0
    prefilled: int = 0
    decoded: int = 0
    admission_index: int = -1
    pool_arrival: float = 0.0

    def __post_init__(self) -> None:
        if self.prefill_target == 0:
            self.prefill_target = self.request.prompt_tokens
        self.pool_arrival = self.pool_arrival or self.request.arrival_time

    @property
    def request(self) -> Request:
        return self.record.request

    @property
    def context_tokens(self) -> int:
        """Tokens whose keys/values must be live before the next step."""
        return self.request.prompt_tokens + self.decoded

    @property
    def prefill_remaining(self) -> int:
        return self.prefill_target - self.prefilled


@dataclass(frozen=True)
class BatcherConfig:
    """Static knobs of the continuous batcher."""

    max_batch_tokens: int = 8192
    prefill_chunk_tokens: int = 4096
    min_prefill_chunk_tokens: int = 128
    max_running_requests: int = 128
    policy: str = "fcfs"
    admission_watermark: float = 0.02

    def __post_init__(self) -> None:
        if self.max_batch_tokens < 1:
            raise ValueError("max_batch_tokens must be >= 1")
        if not 1 <= self.min_prefill_chunk_tokens <= self.prefill_chunk_tokens:
            raise ValueError("need 1 <= min_prefill_chunk <= prefill_chunk")
        if self.max_running_requests < 1:
            raise ValueError("max_running_requests must be >= 1")
        if self.policy not in ("fcfs", "priority", "fair"):
            raise ValueError(
                f"unknown policy {self.policy!r}; use 'fcfs', 'priority' or 'fair'"
            )
        if not 0.0 <= self.admission_watermark < 1.0:
            raise ValueError("admission_watermark must be in [0, 1)")


@dataclass(slots=True, eq=False)
class IterationPlan:
    """The work one engine iteration executes."""

    prefill: List[Tuple[RequestState, int]] = field(default_factory=list)
    decode: List[RequestState] = field(default_factory=list)
    #: ``(linear, attention)`` FLOPs of the decode steps, taken from the
    #: batcher's exact running totals when ``decode`` covers every
    #: DECODE-phase request; ``None`` means price by the ordered fold.
    decode_flops: Optional[Tuple[float, float]] = None

    @property
    def prefill_tokens(self) -> int:
        return sum(chunk for _, chunk in self.prefill)

    @property
    def batch_tokens(self) -> int:
        return self.prefill_tokens + len(self.decode)

    @property
    def empty(self) -> bool:
        return not self.prefill and not self.decode

    def drop(self, state: RequestState) -> None:
        """Remove a (just-preempted) request from the plan."""
        self.prefill = [(s, c) for s, c in self.prefill if s is not state]
        self.decode = [s for s in self.decode if s is not state]
        self.decode_flops = None


class DecodeFlopsTable:
    """One model's decode-step FLOPs per context length, cached.

    :meth:`pair` is one decode step's ``(linear, attention)`` FLOPs over a
    context; :meth:`growth` how much that pair grows as the context gains
    tokens.  ``sound`` stays ``True`` while every pair seen is
    integer-valued and no growth is negative — the premise of exact running
    totals; once it turns ``False`` no batcher trusts its totals again.
    One table serves every pool of a model, so a context is priced once per
    process.  Each cache holds at most :attr:`LIMIT` contexts and starts
    over when full.
    """

    LIMIT = 1 << 17

    __slots__ = ("flops_of", "pairs", "growths", "sound")

    def __init__(self, flops_of: Callable[[int], Tuple[float, float]]):
        self.flops_of = flops_of
        self.pairs: Dict[int, Tuple[float, float]] = {}
        #: One-token growths, keyed by the context before the token.
        self.growths: Dict[int, Tuple[float, float]] = {}
        self.sound = True

    def pair(self, context_tokens: int) -> Tuple[float, float]:
        pair = self.pairs.get(context_tokens)
        if pair is None:
            pair = self.flops_of(context_tokens)
            if not (pair[0].is_integer() and pair[1].is_integer()):
                self.sound = False
            if len(self.pairs) >= self.LIMIT:
                self.pairs.clear()
            self.pairs[context_tokens] = pair
        return pair

    def growth(self, context_tokens: int, steps: int) -> Tuple[float, float]:
        old = self.pair(context_tokens)
        new = self.pair(context_tokens + steps)
        growth = (new[0] - old[0], new[1] - old[1])
        if growth[0] < 0 or growth[1] < 0:
            self.sound = False
        if steps == 1:
            if len(self.growths) >= self.LIMIT:
                self.growths.clear()
            self.growths[context_tokens] = growth
        return growth


class ContinuousBatcher:
    """Token-budget continuous batching over a paged KV allocator.

    ``prefill_only`` pools stop requests at prefill completion (phase
    ``HANDOFF``); ``decode_only`` pools admit requests whose context was
    prefilled elsewhere, reserving KV for the whole transferred context.
    With a ``decode_table`` the batcher keeps the running decode-FLOPs
    totals described in the module docstring.
    """

    def __init__(
        self,
        allocator: PagedKVAllocator,
        config: Optional[BatcherConfig] = None,
        prefill_only: bool = False,
        decode_only: bool = False,
        prefill_flops_of: Optional[Callable[[int, int], float]] = None,
        tenancy: Optional[TenancyConfig] = None,
        decode_table: Optional[DecodeFlopsTable] = None,
    ):
        if prefill_only and decode_only:
            raise ValueError("a pool cannot be both prefill_only and decode_only")
        self.allocator = allocator
        self.config = config or BatcherConfig()
        self.prefill_only = prefill_only
        self.decode_only = decode_only
        # Tenancy is fully optional: with ``tenancy=None`` and no "fair"
        # policy, every structure below stays empty and the scheduler is
        # byte-identical to the pre-tenancy batcher.  Token buckets gate the
        # *entry* pool only — in a disaggregated deployment the decode pool
        # receives contexts already admitted (and charged) upstream.
        self.tenancy = tenancy
        self._buckets: Dict[str, TokenBucket] = (
            tenancy.make_buckets() if tenancy is not None and not decode_only else {}
        )
        # Virtual token counters of the fair policy, keyed by tenant name
        # (``None`` groups untagged requests into one shared counter).
        self._virtual_tokens: Dict[Optional[str], float] = {}
        # Prefix caching is the allocator's capability; the batcher merely
        # consults it on admission and publishes blocks as prefill commits.
        self.prefix_caching = allocator.prefix_caching and not decode_only
        # Prices one prefill chunk's layer FLOPs at a KV offset — installed
        # by the owning pool so the batcher can meter executed and
        # cache-skipped prefill work without knowing the model.
        self._prefill_flops_of = prefill_flops_of
        # ``waiting`` preserves exact queue order (arrivals append, preempted
        # victims re-enter at the front) but is a deque so FCFS admission pops
        # the head in O(1) instead of shifting the whole backlog.  Under the
        # priority policy a parallel heap keyed on the static admission key
        # replaces the former O(n) min-scan per admission; the heap mirrors
        # the deque's membership exactly (pushed on enqueue/requeue, popped
        # on activation), so its top is always a live waiting request.
        self.waiting: Deque[RequestState] = deque()
        self._priority_heap: List[Tuple[int, float, int, RequestState]] = []
        self._admissions = 0
        self.running: List[RequestState] = []
        self.tokens_admitted = 0
        self.tokens_prefilled = 0
        self.tokens_preempted_requeued = 0
        self.preemptions = 0
        # Shared-prefix accounting (all zero when prefix caching is off).
        self.prefix_hit_tokens = 0
        self.prefix_hit_requests = 0
        self.prefix_flops_saved = 0.0
        self.prefill_flops_executed = 0.0
        # DECODE-phase requests in ``running``, and their running decode-FLOPs
        # totals (see the module docstring), priced from ``decode_table``.
        # ``_decode_exact``: the totals equal the exact sums, all below the
        # bound.
        self.decode_count = 0
        self.decode_table = decode_table
        self._decode_linear = 0.0
        self._decode_attention = 0.0
        self._decode_exact = decode_table is not None
        # Observability: the owning pool/engine installs the recorder, keeps
        # ``obs_track`` at this pool's track id (pool device or fleet replica
        # id) and advances ``now`` to the current iteration's planning time
        # before calling into the batcher.  All three stay inert when no
        # recorder is configured.
        self.obs: Optional[EventRecorder] = None
        self.obs_track = 0
        self.now = 0.0

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def enqueue(self, state: RequestState) -> None:
        # The largest reservation the request will ever ask for: the final
        # decode step reserves prompt + (output - 1) tokens (the token being
        # generated occupies no KV slot until the step after).
        max_context = state.request.prompt_tokens + state.request.output_tokens - 1
        if blocks_for_tokens(max_context, self.allocator.block_tokens) > self.allocator.total_blocks:
            raise ValueError(
                f"request {state.request.request_id} needs {max_context} context "
                f"tokens, exceeding the pool's KV capacity of "
                f"{self.allocator.total_blocks * self.allocator.block_tokens} tokens"
            )
        if self.tenancy is not None and state.request.tenant is not None:
            # Fail fast (UnknownNameError, listing valid names) when a trace
            # tags a tenant the installed contract table does not know.
            self.tenancy.get_tenant(state.request.tenant)
        state.phase = Phase.WAITING
        if self.config.policy == "fair":
            self._lift_virtual(state.request.tenant)
        self.waiting.append(state)
        self._push_waiting(state)

    def _push_waiting(self, state: RequestState) -> None:
        if self.config.policy == "priority":
            heapq.heappush(
                self._priority_heap,
                (state.request.priority, state.pool_arrival, state.request.request_id, state),
            )

    def _lift_virtual(self, tenant: Optional[str]) -> None:
        """No credit for idleness: a returning tenant starts at the floor.

        Called before the arriving request joins ``waiting``.  If the tenant
        already has work in the pool its counter is live; otherwise it is
        lifted to the minimum counter over the currently active tenants, so a
        tenant that sat out an hour cannot monopolise the pool to "catch up".
        """
        active = {s.request.tenant for s in self.waiting}
        active.update(s.request.tenant for s in self.running)
        if tenant in active or not active:
            return
        floor = min(self._virtual_tokens.get(t, 0.0) for t in active)
        if self._virtual_tokens.get(tenant, 0.0) < floor:
            self._virtual_tokens[tenant] = floor

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

    def tenant_queue_depths(self) -> Tuple[Tuple[str, int], ...]:
        """Waiting-queue depth per tagged tenant, name-sorted.

        Untagged requests are excluded, so an anonymous workload reports an
        empty tuple — the shape fleet routers/autoscalers see today.  The
        scan only runs once tenancy (or fair scheduling) is switched on, so
        snapshot-heavy anonymous fleets pay nothing for it.
        """
        if self.tenancy is None and self.config.policy != "fair":
            return ()
        counts: Dict[str, int] = {}
        for state in self.waiting:
            tenant = state.request.tenant
            if tenant is not None:
                counts[tenant] = counts.get(tenant, 0) + 1
        return tuple(sorted(counts.items()))

    def _next_waiting_index(self) -> int:
        if self.config.policy == "priority":
            # The heap top is the same request the former full scan selected
            # (the admission key is total — request ids are unique).  Finding
            # its deque position is still a linear pass, but an identity scan
            # at C speed instead of building and comparing a Python key tuple
            # per waiting request.
            return self.waiting.index(self._priority_heap[0][3])
        return 0

    def _bucket_ready(self, state: RequestState) -> bool:
        """True when the tenant's token bucket (if any) admits this request.

        Only a request's *first* admission is rate-limited; a preempted
        request was already charged, and re-prefill work is the scheduler's
        fault, not the tenant's.
        """
        if not self._buckets or state.admission_index >= 0:
            return True
        bucket = self._buckets.get(state.request.tenant)
        if bucket is None:
            return True
        return bucket.ready_time(self.now, state.request.total_tokens) <= self.now + 1e-12

    def _select_admission_index(self) -> Optional[int]:
        """Pick the next waiting request under the configured policy.

        Returns ``None`` when admission is blocked by token buckets: the
        fair policy scans past blocked tenants (they hold no head-of-line
        claim), while ``fcfs``/``priority`` keep their strict order and stall
        until the head's bucket refills.
        """
        if self.config.policy == "fair":
            best: Optional[int] = None
            best_key: Optional[Tuple[float, float, int]] = None
            for index, state in enumerate(self.waiting):
                if not self._bucket_ready(state):
                    continue
                key = (
                    self._virtual_tokens.get(state.request.tenant, 0.0),
                    state.pool_arrival,
                    state.request.request_id,
                )
                if best_key is None or key < best_key:
                    best, best_key = index, key
            return best
        index = self._next_waiting_index()
        return index if self._bucket_ready(self.waiting[index]) else None

    def next_admission_time(self) -> Optional[float]:
        """Earliest time a bucket-blocked waiting request becomes admissible.

        ``None`` when no waiting request is blocked purely by its tenant's
        token bucket — the engine uses this to jump simulated time across a
        rate-limit stall instead of declaring the pool wedged.  Policy-aware:
        under ``fcfs``/``priority`` only the head-of-line request can be
        admitted, so only *its* bucket matters — a later request that happens
        to be grantable right now does not unblock the queue.
        """
        if not self._buckets or not self.waiting:
            return None
        if self.config.policy != "fair":
            state = self.waiting[self._next_waiting_index()]
            if state.admission_index >= 0:
                return None
            bucket = self._buckets.get(state.request.tenant)
            if bucket is None:
                return None
            return bucket.ready_time(self.now, state.request.total_tokens)
        best: Optional[float] = None
        for state in self.waiting:
            if state.admission_index >= 0:
                continue
            bucket = self._buckets.get(state.request.tenant)
            if bucket is None:
                continue
            ready = bucket.ready_time(self.now, state.request.total_tokens)
            if best is None or ready < best:
                best = ready
        return best

    # ------------------------------------------------------------------
    # Decode-FLOPs totals
    # ------------------------------------------------------------------
    def decode_flops(self) -> Tuple[float, float]:
        """``(linear, attention)`` decode FLOPs of the DECODE-phase requests.

        The running totals while they are exact; otherwise the ordered fold
        over ``running``, which re-arms the totals once it is back below
        :data:`EXACT_FLOPS_BOUND`.  Either way the value equals what the
        ordered fold produces.
        """
        if not self._decode_exact:
            table = self.decode_table
            linear = 0.0
            attention = 0.0
            for state in self.running:
                if state.phase is Phase.DECODE:
                    pair = table.pair(state.context_tokens)
                    linear += pair[0]
                    attention += pair[1]
            self._decode_linear = linear
            self._decode_attention = attention
            self._decode_exact = (
                table.sound and linear < EXACT_FLOPS_BOUND and attention < EXACT_FLOPS_BOUND
            )
            return linear, attention
        return self._decode_linear, self._decode_attention

    def decode_growth(self) -> Optional[Tuple[float, float, float, float]]:
        """Exact decode totals and how much one more token each adds to them.

        ``(linear, attention, linear_growth, attention_growth)``: the
        running totals of :meth:`decode_flops` and the sum, over the
        DECODE-phase requests, of their pairs' growth as each context gains
        one token.  ``None`` when the totals are not exact or the table is
        unsound; callers then price one step at a time.
        """
        linear, attention = self.decode_flops()
        if not self._decode_exact:
            return None
        table = self.decode_table
        cached = table.growths
        grow_linear = 0.0
        grow_attention = 0.0
        for state in self.running:
            if state.phase is Phase.DECODE:
                context = state.record.request.prompt_tokens + state.decoded
                growth = cached.get(context) or table.growth(context, 1)
                grow_linear += growth[0]
                grow_attention += growth[1]
        if not table.sound:
            return None
        return linear, attention, grow_linear, grow_attention

    def _count_decode(self, state: RequestState, sign: int) -> None:
        """Add (``sign=1``) or remove (``-1``) one DECODE request and its pair.

        Removing a pair the exact totals contain is exact; adding one is
        exact unless the result reaches the bound, which marks the totals
        inexact until :meth:`decode_flops` rebuilds them.
        """
        self.decode_count += sign
        if not self._decode_exact:
            return
        table = self.decode_table
        pair = table.pair(state.context_tokens)
        linear = self._decode_linear + sign * pair[0]
        attention = self._decode_attention + sign * pair[1]
        self._decode_linear = linear
        self._decode_attention = attention
        self._decode_exact = (
            table.sound and linear < EXACT_FLOPS_BOUND and attention < EXACT_FLOPS_BOUND
        )

    def advance_decodes(self, states: Sequence[RequestState], steps: int) -> None:
        """Credit ``steps`` generated tokens to each DECODE-phase state.

        The one place decode progress is committed — per iteration by
        :meth:`commit`, per coalesced stretch by the engines — so the
        running totals follow every context change.  Each growth is an
        exact non-negative integer, so the partial sums only rise: the
        final total below the bound proves every partial sum exact.
        """
        if not self._decode_exact:
            for state in states:
                state.decoded += steps
            return
        table = self.decode_table
        cached = table.growths if steps == 1 else {}
        linear = self._decode_linear
        attention = self._decode_attention
        for state in states:
            context = state.record.request.prompt_tokens + state.decoded
            state.decoded += steps
            growth = cached.get(context) or table.growth(context, steps)
            linear += growth[0]
            attention += growth[1]
        self._decode_linear = linear
        self._decode_attention = attention
        self._decode_exact = (
            table.sound and linear < EXACT_FLOPS_BOUND and attention < EXACT_FLOPS_BOUND
        )

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _preempt_victim(self, plan: IterationPlan) -> Optional[RequestState]:
        """Evict the newest / lowest-priority running request to free blocks.

        With a tenancy config, SLO-class preemption cost outranks admission
        recency: the cheapest class (best-effort, cost 0) is sacrificed
        first, interactive (cost 2) last.  Untagged requests cost 0, so a
        run without tenant tags keeps the historical victim order exactly.
        """
        if not self.running:
            return None
        tenancy = self.tenancy
        if tenancy is None:
            victim = max(
                self.running,
                key=lambda s: (s.request.priority, s.admission_index),
            )
        else:
            victim = max(
                self.running,
                key=lambda s: (
                    s.request.priority,
                    -tenancy.preemption_cost_for(s.request.tenant),
                    s.admission_index,
                ),
            )
        self.running.remove(victim)
        if victim.phase is Phase.DECODE:
            self._count_decode(victim, -1)
        plan.drop(victim)
        self.allocator.evict(victim.request.request_id)
        self.preemptions += 1
        victim.record.preemptions += 1
        self.tokens_preempted_requeued += victim.prefill_remaining
        prefilled_lost = victim.prefilled
        # The whole context (prompt plus any already-generated tokens) must be
        # re-prefilled on resume; tokens already delivered stay delivered.
        victim.prefill_target = victim.context_tokens
        victim.prefilled = 0
        victim.phase = Phase.WAITING
        self.waiting.appendleft(victim)
        self._push_waiting(victim)
        if self.obs is not None:
            self.obs.emit(
                self.now, obs_events.PREEMPT, self.obs_track,
                victim.request.request_id,
                (prefilled_lost, victim.decoded, victim.prefill_target),
            )
        return victim

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, prefill_budget: Optional[int] = None) -> IterationPlan:
        """Select this iteration's decode steps, prefill chunks and admissions."""
        cfg = self.config
        plan = IterationPlan()
        budget = cfg.max_batch_tokens

        # 1. Decode steps: one token per running decode request.  A growth
        #    that fits the blocks the request holds is token bookkeeping
        #    only; one crossing a block boundary acquires a block, in running
        #    order, preempting on memory pressure.
        allocator = self.allocator
        preempted = False
        for state in list(self.running):
            if state.phase is not Phase.DECODE or budget <= 0:
                continue
            if preempted and state not in self.running:  # evicted earlier
                continue
            request = state.record.request
            rid = request.request_id
            context = request.prompt_tokens + state.decoded
            if not allocator.grow_in_place(rid, context):
                while not allocator.reserve(rid, context):
                    preempted = True
                    victim = self._preempt_victim(plan)
                    if victim is None or victim is state:
                        break
                if state not in self.running:
                    continue
            plan.decode.append(state)
            budget -= 1

        if self.decode_only:
            self._admit(plan, budget)
            return self._attach_decode_flops(plan)

        # 2. Prefill chunks for already-running requests, oldest first.
        if prefill_budget is not None:
            budget = min(budget, max(prefill_budget, cfg.min_prefill_chunk_tokens))
        for state in self.running:
            if state.phase is not Phase.PREFILL or budget <= 0:
                continue
            chunk = min(budget, cfg.prefill_chunk_tokens, state.prefill_remaining)
            if chunk <= 0:
                continue
            if not self.allocator.reserve(state.request.request_id, state.prefilled + chunk):
                continue  # wait for blocks to free up
            plan.prefill.append((state, chunk))
            self._meter_prefill(chunk, state.prefilled)
            budget -= chunk

        # 3. Admission of new requests with the remaining budget.
        self._admit(plan, budget)
        return self._attach_decode_flops(plan)

    def _attach_decode_flops(self, plan: IterationPlan) -> IterationPlan:
        """Attach the exact decode-FLOPs totals when the plan decodes them all.

        A plan reused across iterations (a pool's decode stretch) drops
        totals that are no longer exact.
        """
        if self.decode_table is not None and len(plan.decode) == self.decode_count:
            flops = self.decode_flops()
            plan.decode_flops = flops if self._decode_exact else None
        return plan

    def _admit(self, plan: IterationPlan, budget: int) -> None:
        cfg = self.config
        watermark_blocks = int(cfg.admission_watermark * self.allocator.total_blocks)
        while self.waiting and len(self.running) < cfg.max_running_requests:
            index = self._select_admission_index()
            if index is None:
                break
            state = self.waiting[index]
            rid = state.request.request_id
            if self.decode_only:
                # Context was prefilled elsewhere; reserve it wholesale.  A
                # preempted context is re-fetched, not recomputed: marking it
                # prefilled keeps every conservation-law counter at zero in
                # this pool (no prefill work, no admitted prefill target),
                # even across repeated preemptions.  Each admitted request
                # decodes one token this iteration, so it spends one token
                # of batch budget like the running decodes above.
                if budget <= 0:
                    break
                if not self.allocator.reserve(rid, state.context_tokens):
                    break
                state.prefilled = state.prefill_target
                self._activate(state, index, Phase.DECODE)
                plan.decode.append(state)
                budget -= 1
                continue
            if budget <= 0:
                break
            if self.prefix_caching and state.prefilled == 0 and state.request.prefix:
                self._consult_prefix_cache(state)
            chunk = min(budget, cfg.prefill_chunk_tokens, state.prefill_remaining)
            if chunk <= 0:
                break
            need_blocks = blocks_for_tokens(
                state.prefilled + chunk, self.allocator.block_tokens
            ) - self.allocator.blocks_held(rid)
            free = self.allocator.free_blocks + self.allocator.reclaimable_blocks
            if free - need_blocks < watermark_blocks:
                break
            if not self.allocator.reserve(rid, state.prefilled + chunk):
                break
            self._activate(state, index, Phase.PREFILL)
            self.tokens_admitted += state.prefill_remaining
            plan.prefill.append((state, chunk))
            self._meter_prefill(chunk, state.prefilled)
            budget -= chunk

    def _meter_prefill(self, chunk: int, kv_offset: int) -> None:
        self.tokens_prefilled += chunk
        if self._prefill_flops_of is not None:
            self.prefill_flops_executed += self._prefill_flops_of(chunk, kv_offset)

    def _consult_prefix_cache(self, state: RequestState) -> None:
        """Skip prefill for the request's cached prefix blocks (admission).

        The longest cached run of the request's prefix blocks is referenced
        copy-on-write and counted as already prefilled; at least one prompt
        token always stays uncached so the request still runs a prefill
        completion (which samples its first output token).  References stick
        even when admission then fails on budget or watermark this iteration
        — the request retries with the references (and the skip) intact.
        """
        request = state.request
        block_tokens = self.allocator.block_tokens
        keys = prefix_block_keys(request.prefix, block_tokens)
        if not keys:
            return
        cap = (state.prefill_target - 1) // block_tokens
        matched = self.allocator.acquire_prefix(request.request_id, keys, max_blocks=cap)
        if not matched:
            return
        cached = matched * block_tokens
        state.prefilled = cached
        state.record.prefix_cached_tokens += cached
        self.prefix_hit_tokens += cached
        self.prefix_hit_requests += 1
        if self._prefill_flops_of is not None:
            self.prefix_flops_saved += self._prefill_flops_of(cached, 0)
        if self.obs is not None:
            self.obs.emit(
                self.now, obs_events.PREFIX_HIT, self.obs_track,
                request.request_id, (cached,),
            )

    def _activate(self, state: RequestState, waiting_index: int, phase: Phase) -> None:
        if waiting_index == 0:
            self.waiting.popleft()
        else:
            del self.waiting[waiting_index]
        if self.config.policy == "priority":
            heapq.heappop(self._priority_heap)  # _next_waiting_index's pick
        first_admission = state.admission_index < 0
        if first_admission and self._buckets:
            bucket = self._buckets.get(state.request.tenant)
            if bucket is not None:
                bucket.admit(self.now, state.request.total_tokens)
        if self.config.policy == "fair":
            # Charge the tenant's virtual clock for the work this admission
            # buys: the outstanding prefill plus the undelivered output.
            tenant = state.request.tenant
            work = state.prefill_remaining + max(
                0, state.request.output_tokens - state.decoded
            )
            weight = 1.0 if self.tenancy is None else self.tenancy.weight_for(tenant)
            self._virtual_tokens[tenant] = (
                self._virtual_tokens.get(tenant, 0.0) + work / weight
            )
        state.phase = phase
        if phase is Phase.DECODE:
            self._count_decode(state, 1)
        state.admission_index = self._admissions
        self._admissions += 1
        self.running.append(state)
        if self.obs is not None:
            self.obs.emit(
                self.now, obs_events.ADMIT, self.obs_track,
                state.request.request_id,
                (phase.value, state.prefilled, state.prefill_target),
            )

    # ------------------------------------------------------------------
    # Committing an executed iteration
    # ------------------------------------------------------------------
    def commit(self, plan: IterationPlan, end_time: float) -> List[RequestState]:
        """Apply the effects of an executed plan at simulated time ``end_time``.

        Returns the requests that left the running set this iteration —
        finished requests, or (in a prefill-only pool) contexts ready for
        hand-off to the decode pool.
        """
        departed: List[RequestState] = []
        obs = self.obs
        for state, chunk in plan.prefill:
            if obs is not None:
                obs.emit(
                    end_time, obs_events.PREFILL, self.obs_track,
                    state.request.request_id,
                    (chunk, state.prefilled, state.prefill_target),
                )
            state.prefilled += chunk
            if self.prefix_caching and state.request.prefix:
                # Freshly computed prefix blocks become shareable the moment
                # their tokens are prefilled (copy-on-write publication).
                self.allocator.publish_prefix(
                    state.request.request_id,
                    prefix_block_keys(state.request.prefix, self.allocator.block_tokens),
                    state.prefilled,
                )
            if state.prefilled < state.prefill_target:
                continue
            if state.record.first_token_time is None:
                # Completing the prefill also samples the first output token.
                state.record.first_token_time = end_time
                state.decoded = max(state.decoded, 1)
                if obs is not None:
                    obs.emit(
                        end_time, obs_events.FIRST_TOKEN, self.obs_track,
                        state.request.request_id,
                        (end_time - state.request.arrival_time,),
                    )
            if state.decoded >= state.request.output_tokens:
                self._finish(state, end_time, departed)
            elif self.prefill_only:
                state.phase = Phase.HANDOFF
                self.running.remove(state)
                self.allocator.release(state.request.request_id)
                departed.append(state)
                if obs is not None:
                    obs.emit(
                        end_time, obs_events.HANDOFF, self.obs_track,
                        state.request.request_id,
                    )
            else:
                state.phase = Phase.DECODE
                self._count_decode(state, 1)
        self.advance_decodes(plan.decode, 1)
        for state in plan.decode:
            if state.decoded >= state.record.request.output_tokens:
                self._finish(state, end_time, departed)
        return departed

    def _finish(self, state: RequestState, end_time: float, departed: List[RequestState]) -> None:
        if state.phase is Phase.DECODE:
            self._count_decode(state, -1)
        state.phase = Phase.FINISHED
        state.record.finish_time = end_time
        self.running.remove(state)
        self.allocator.release(state.request.request_id)
        departed.append(state)
        if self.obs is not None:
            record = state.record
            self.obs.emit(
                end_time, obs_events.FINISH, self.obs_track,
                state.request.request_id,
                (record.ttft, record.tpot, state.request.output_tokens),
            )
