"""Discrete-event serving loop: colocated and prefill/decode-disaggregated.

The engine steps a GPU pool through *iterations* the way a real continuous
batching server does: every iteration executes one decode token for each
running request plus the prefill chunks admitted under the token budget, and
the iteration's duration comes from the same :class:`~repro.model.costs.CostModel`
the training simulator uses (the per-pass arithmetic-intensity roll-off is
what makes small decode batches launch/bandwidth-bound, and a mixed
prefill+decode iteration as slow as its combined FLOPs demand).

Two deployments are modelled:

* :class:`ServingEngine` — the **colocated** baseline: one pool runs prefill
  and decode together.  When ``ServingConfig.tpot_cap`` is set (the default
  path wires in the scenario's TPOT SLO), the engine performs SLO-aware
  chunked prefill: each iteration's prefill budget is shrunk — by inverting
  the cost model — so the iteration stays under the cap and running decodes
  keep their inter-token latency.  Protecting TPOT is exactly what throttles
  prefill throughput under bursts of long prompts.
* :class:`DisaggregatedEngine` — prefill and decode run on **separate
  pools**; finished prefill contexts are handed to the decode pool after a
  KV-transfer delay priced by :class:`~repro.hardware.comm.CommModel`
  (NVLink when both pools share a node, NIC otherwise).  The prefill pool
  needs no TPOT cap — it runs no decodes — which is the mechanism behind its
  lower tail TTFT.

Capacity is derived, not configured: per-GPU HBM minus bf16 weights minus an
activation reserve, divided into fixed-size KV blocks priced by
:func:`~repro.model.memory.kv_cache_bytes_per_token_per_layer`.

One stepping core
-----------------
Every pool — the colocated pool, each half of a disaggregated pair and every
fleet replica — is stepped by the same two :class:`_Pool` calls, in the
iteration-level scheduling style of Orca (Yu et al., OSDI 2022):

* :meth:`_Pool.start` starts the next iteration at ``now`` and returns its
  end: it plans, preempts and replans, and prices — or, for a stable
  pure-decode batch, starts a *stretch* (below);
* :meth:`_Pool.complete` completes the in-flight iteration at its end: the
  KV-utilization, busy-time and iteration statistics, the iteration cap,
  the ITERATION or STRETCH event and the commit.  With a recorder, those
  events are the run's one iteration trace: one ITERATION per naive
  iteration, one STRETCH per coalesced decode stretch.

The callers only decide *when*.  :meth:`_Pool.run` is the serving loop: it
ingests arrivals, bounds every start by the next arrival and jumps idle time
(to the next arrival or a token-bucket refill).  The fleet loop
(:mod:`repro.fleet.cluster`) routes, scales and fails replicas around the
same calls and queues the completions they return.  Statistics land on a
:class:`PoolStats` the caller owns, so a fleet replica's outlive a crashed
pool.

Decode stretches
----------------
Most iterations of a drained trace are *pure decode over a stable batch*: no
request waiting, no prefill chunk in flight, nothing finishing, no KV block
pressure.  Re-running the scheduler, the SLO budget search and the pricing
for them only concludes "the same batch decodes one more token".  With
``ServingConfig.fast_forward`` (the default) :meth:`_Pool.start` bounds such
a stretch analytically (first finishing request, first un-satisfiable
KV-block growth) and folds every step that ends strictly before the caller's
horizon (the next arrival, or the fleet's next global event) in one loop.
Step ``k`` prices from ``(L + k*GL, A + k*GA)``: the batcher's exact decode
totals plus ``k`` times the batch's one-token growth.  The step that reaches
the horizon, and the stretch's last step, run as ordinary in-flight
iterations.  Durations, KV-utilization integrals and timestamps come out
byte-equal to the naive stepper, which stays available as the reference
oracle via ``fast_forward=False``.

Iterations that do not coalesce are priced from the same running
decode-FLOPs totals (:meth:`ContinuousBatcher.decode_flops`): the decode
part of an iteration and the prefill-budget search cost O(prefill chunks),
not O(batch).  FLOPs components are integer-valued floats, so below
:data:`~repro.serving.batcher.EXACT_FLOPS_BOUND` (2^53) the totals equal the
ordered per-iteration fold bit for bit; at or above it pricing takes that
ordered fold instead, and no stretch step folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..hardware.comm import CommModel
from ..hardware.gpu import GPUSpec, HOPPER_80GB
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..obs import events as obs_events
from ..obs.events import EventRecorder
from ..model.costs import CostModel
from ..model.flops import FlopsBreakdown, layer_forward_flops, output_layer_flops
from ..model.memory import kv_cache_bytes_per_token_per_layer
from .batcher import (
    EXACT_FLOPS_BOUND,
    BatcherConfig,
    ContinuousBatcher,
    DecodeFlopsTable,
    IterationPlan,
    Phase,
    RequestState,
)
from .metrics import SLO, RequestRecord, ServingMetrics, StreamingMetrics, TenantMetrics
from .paged_kv import PagedKVAllocator
from .tenancy import TenancyConfig
from .workload import Request

__all__ = ["ServingConfig", "ServingResult", "ServingEngine", "DisaggregatedEngine"]


@dataclass(frozen=True)
class ServingConfig:
    """Static configuration of a serving deployment."""

    num_gpus: int = 8
    gpu: GPUSpec = field(default=HOPPER_80GB)
    block_tokens: int = 256
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    memory_utilization: float = 0.90
    activation_reserve_fraction: float = 0.05
    iteration_overhead: float = 100e-6
    tpot_cap: Optional[float] = None
    max_iterations: int = 2_000_000
    #: Coalesce stable pure-decode stretches into one inner loop (exact; see
    #: the module docstring).  ``False`` forces the naive one-iteration-at-a-
    #: time reference stepper.
    fast_forward: bool = True
    #: Keep every :class:`RequestRecord` in the result.  Either way finished requests fold into one
    #: :class:`~repro.serving.metrics.StreamingMetrics`; this flag decides
    #: only whether the records are kept and which quantile backend the fold
    #: uses — exact sorted samples (``True``, the default every golden and
    #: the obs/diagnosis layer depend on) or bounded-memory P² sketches
    #: (``False``, for the massive-* scenarios).  ``False`` requires the
    #: colocated engine; record consumers (``--explain``, attribution,
    #: ``--diff-against``) need ``True``.
    retain_records: bool = True
    #: Shared-prefix KV caching: requests whose prompts declare a shared
    #: prefix (:attr:`~repro.serving.workload.Request.prefix`) skip prefill
    #: for cached prefix blocks, which are reference-counted in a radix tree
    #: (:mod:`repro.serving.prefix_cache`) and evicted LRU-first only under
    #: memory pressure.  Off by default: with ``False`` every simulated
    #: number is byte-identical to the pre-prefix engine.
    prefix_caching: bool = False
    #: Opt-in observability: an :class:`~repro.obs.events.EventRecorder` the
    #: engine emits lifecycle events into.  ``None`` (the default) keeps the
    #: hot path untouched — every emit site is guarded — so all simulated
    #: numbers are byte-identical with the recorder absent.  Excluded from
    #: equality/hash: two configs that simulate identically compare equal.
    observe: Optional[EventRecorder] = field(default=None, compare=False, repr=False)
    #: Multi-tenant QoS contract table (:mod:`repro.serving.tenancy`):
    #: per-tenant SLO classes, fair-share weights and token-bucket rate
    #: limits.  ``None`` — the default — disables admission control and
    #: per-tenant SLO overrides entirely; combined with the default
    #: scheduling policy every simulated number is byte-identical to the
    #: pre-tenancy engine (pinned by ``tests/test_tenancy_properties.py``).
    tenancy: Optional[TenancyConfig] = None

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.block_tokens < 1:
            raise ValueError("block_tokens must be >= 1")
        if not 0.0 < self.memory_utilization <= 1.0:
            raise ValueError("memory_utilization must be in (0, 1]")
        if not 0.0 <= self.activation_reserve_fraction < 1.0:
            raise ValueError("activation_reserve_fraction must be in [0, 1)")
        if self.tpot_cap is not None and not self.tpot_cap > 0:
            raise ValueError(f"tpot_cap must be positive when given, not {self.tpot_cap!r}")
        if not 0.0 <= self.iteration_overhead < math.inf:
            raise ValueError(
                "iteration_overhead must be a finite non-negative number of seconds, "
                f"not {self.iteration_overhead!r}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, not {self.max_iterations!r}")


@dataclass
class PoolStats:
    """What a pool's completed iterations add up to.

    Owned by whoever steps the pool, so a fleet replica's statistics outlive a
    crashed pool.
    """

    iterations: int = 0
    busy_time: float = 0.0
    #: KV utilization integrated over busy time.
    kv_weighted: float = 0.0
    kv_peak: float = 0.0

    @property
    def kv_mean(self) -> float:
        return self.kv_weighted / self.busy_time if self.busy_time > 0 else 0.0


@dataclass
class PoolCounters:
    """Token, preemption and prefix-cache counters, summed over pools.

    The counters every serving and fleet result reports (both results
    inherit them); each sum runs in pool order from zero.  The prefix-cache
    outcomes are all zero when prefix caching is off.
    """

    tokens_admitted: int = 0
    tokens_prefilled: int = 0
    tokens_preempted_requeued: int = 0
    preemptions: int = 0
    prefix_hit_tokens: int = 0
    prefix_hit_requests: int = 0
    prefix_flops_saved: float = 0.0
    prefill_flops_executed: float = 0.0
    prefix_evictions: int = 0

    @classmethod
    def of(cls, pools: Iterable["_Pool"]) -> "PoolCounters":
        """The counters of ``pools``: their batchers' plus prefix evictions."""
        totals = cls()
        for pool in pools:
            prefix = pool.allocator.prefix
            evictions = prefix.evicted_blocks if prefix is not None else 0
            counts = {name: getattr(pool.batcher, name) for name in _BATCHER_COUNTERS}
            totals.add(cls(**counts, prefix_evictions=evictions))
        return totals

    def add(self, other: "PoolCounters") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    @property
    def token_accounting_balanced(self) -> bool:
        """The conservation law over a fully drained trace, summed over pools."""
        return self.tokens_admitted == self.tokens_prefilled + self.tokens_preempted_requeued

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of required prompt tokens served from the prefix cache."""
        required = self.prefix_hit_tokens + self.tokens_prefilled
        return self.prefix_hit_tokens / required if required else 0.0

    def finalize(
        self, fold: StreamingMetrics, duration: float, kv_mean: float, kv_peak: float
    ) -> ServingMetrics:
        """The run's metrics: ``fold``'s latencies plus these counters."""
        return fold.finalize(
            duration,
            kv_utilization_mean=kv_mean,
            kv_utilization_peak=kv_peak,
            preemptions=self.preemptions,
            prefix_hit_rate=self.prefix_hit_rate,
            prefix_hit_tokens=self.prefix_hit_tokens,
            prefix_flops_saved=self.prefix_flops_saved,
            prefix_evictions=self.prefix_evictions,
        )


@dataclass(kw_only=True)
class ServingResult(PoolCounters):
    """Everything one simulated serving run produced."""

    mode: str
    metrics: ServingMetrics
    records: List[RequestRecord]
    iterations: int
    kv_capacity_tokens: int
    #: ``False`` when the run kept no records: ``records`` is empty and the
    #: percentiles are P²-sketched.
    retain_records: bool = True
    #: Per-tenant aggregates, keyed by tenant name.  Empty unless the trace
    #: carried tenant tags.
    tenant_metrics: Dict[str, TenantMetrics] = field(default_factory=dict)


#: The :class:`PoolCounters` a pool's batcher keeps under the same names
#: (all but ``prefix_evictions``, which its prefix cache counts).
_BATCHER_COUNTERS = [f.name for f in fields(PoolCounters) if f.name != "prefix_evictions"]


@dataclass
class _IterationCap:
    """An iteration budget shared by every pool that draws on it."""

    limit: int
    owner: str
    count: int = 0

    def spend(self, iterations: int) -> None:
        self.count += iterations
        if self.count > self.limit:
            raise RuntimeError(f"{self.owner} exceeded {self.limit} iterations")


@lru_cache(maxsize=1 << 17)
def _decode_flops_cached(model: ModelConfig, context_tokens: int) -> Tuple[float, float]:
    """One decode step's ``(linear, attention)`` FLOPs over ``context_tokens`` keys."""
    flops = layer_forward_flops(model, 1, context_tokens) * model.num_layers
    flops = flops + output_layer_flops(model, 1)
    return flops.linear, flops.attention


@lru_cache(maxsize=None)
def _decode_table(model: ModelConfig) -> DecodeFlopsTable:
    """The decode FLOPs table shared by every pool serving ``model``."""
    return DecodeFlopsTable(partial(_decode_flops_cached, model))


@lru_cache(maxsize=1 << 16)
def _prefill_flops_cached(
    model: ModelConfig, chunk: int, kv_offset: int, completes: bool
) -> FlopsBreakdown:
    """One prefill chunk's FLOPs (plus the sampling head when it completes)."""
    flops = layer_forward_flops(model, chunk, kv_offset) * model.num_layers
    if completes:
        flops = flops + output_layer_flops(model, 1)
    return flops


class _Pool:
    """One GPU pool: allocator + batcher + cost model + the stepping core."""

    def __init__(
        self,
        model: ModelConfig,
        num_gpus: int,
        config: ServingConfig,
        prefill_only: bool = False,
        decode_only: bool = False,
    ):
        self.model = model
        self.num_gpus = num_gpus
        self.config = config
        self.costs = CostModel(config.gpu)
        self.total_kv_blocks = self._kv_blocks()
        # A decode-only pool never prefills, so prefix caching has nothing to
        # skip there; the prefill pool of a disaggregated pair gets it.
        self.allocator = PagedKVAllocator(
            self.total_kv_blocks,
            config.block_tokens,
            prefix_caching=config.prefix_caching and not decode_only,
        )
        num_layers = model.num_layers

        def prefill_flops_of(chunk: int, kv_offset: int) -> float:
            """Layer FLOPs of one prefill chunk (sampling head excluded)."""
            return (layer_forward_flops(model, chunk, kv_offset) * num_layers).total

        self.batcher = ContinuousBatcher(
            self.allocator,
            config.batcher,
            prefill_only=prefill_only,
            decode_only=decode_only,
            prefill_flops_of=prefill_flops_of,
            tenancy=config.tenancy,
            decode_table=_decode_table(model),
        )
        # Observability (None keeps every emit site dormant).  The batcher
        # shares the pool's recorder; its track id is set when the pool runs
        # (or, for fleet pools, to the owning replica's id).
        self.obs = config.observe
        self.batcher.obs = self.obs
        if prefill_only:
            self.track_name = "prefill pool"
        elif decode_only:
            self.track_name = "decode pool"
        else:
            self.track_name = "pool"
        gpu = self.costs.gpu
        self._inv_gpus = 1.0 / self.num_gpus
        self._fwd_linear_rate = gpu.peak_flops * gpu.gemm_efficiency_forward
        self._fwd_attention_rate = gpu.peak_flops * gpu.attention_efficiency_forward
        self._intensity_knee = gpu.intensity_tokens
        self._launch_overhead = gpu.kernel_launch_overhead
        # The caller owns the statistics and the iteration cap.  ITERATION
        # goes out after the commit (serving's order) unless
        # ``iteration_event_first`` (the fleet's).
        self.stats = PoolStats()
        self.cap = _IterationCap(config.max_iterations, "serving loop")
        self.iteration_event_first = False
        # Token buckets refill against the batcher's clock, so it must track
        # simulated time whenever admission control is live (the recorder
        # needs it for event timestamps anyway).
        self._track_now = self.obs is not None or bool(self.batcher._buckets)
        # The in-flight iteration: its plan (None when idle) and duration.
        self.busy: Optional[IterationPlan] = None
        self._busy_duration = 0.0
        # The decode stretch under way: its constant plan and allocator keys,
        # the steps it may run after the in-flight one, its start time and
        # its completed steps.
        self._stretch: Optional[IterationPlan] = None
        self._stretch_ids: List[int] = []
        self._stretch_left = 0
        self._stretch_start = 0.0
        self._stretch_done = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def _kv_blocks(self) -> int:
        cfg = self.config
        weights_per_gpu = self.model.total_params() * 2.0 / self.num_gpus
        budget = cfg.gpu.memory_bytes * cfg.memory_utilization
        headroom = budget - weights_per_gpu - cfg.gpu.memory_bytes * cfg.activation_reserve_fraction
        if headroom <= 0:
            raise ValueError(
                f"{self.model.name} does not fit {self.num_gpus} x "
                f"{cfg.gpu.name}: weights need "
                f"{weights_per_gpu / 2**30:.0f} GiB/GPU of "
                f"{budget / 2**30:.0f} GiB usable"
            )
        kv_per_token_per_gpu = (
            kv_cache_bytes_per_token_per_layer(self.model, tensor_parallel_size=self.num_gpus)
            * self.model.num_layers
        )
        blocks = int(headroom // (cfg.block_tokens * kv_per_token_per_gpu))
        if blocks < 1:
            raise ValueError("KV headroom is below one block; reduce block_tokens")
        return blocks

    @property
    def kv_capacity_tokens(self) -> int:
        return self.total_kv_blocks * self.config.block_tokens

    # ------------------------------------------------------------------
    # Iteration pricing
    # ------------------------------------------------------------------
    def _pair_time(self, linear: float, attention: float, batch_tokens: int) -> float:
        """Iteration duration from summed (linear, attention) FLOPs components.

        Bit-for-bit the same arithmetic as building the
        :class:`~repro.model.flops.FlopsBreakdown`, scaling it by
        ``1/num_gpus`` and calling :meth:`CostModel.time_of` with the forward
        pass kind — every multiply, divide and add happens in the same order
        on the same values — just without the intermediate value objects.
        """
        if linear + attention <= 0:
            return self.config.iteration_overhead
        linear = linear * self._inv_gpus
        attention = attention * self._inv_gpus
        if batch_tokens <= 0:
            factor = 1.0
        else:
            factor = batch_tokens / (batch_tokens + self._intensity_knee)
        total = linear / (self._fwd_linear_rate * factor) + attention / (
            self._fwd_attention_rate * factor
        )
        if linear > 0 or attention > 0:
            total += self._launch_overhead
        return total + self.config.iteration_overhead

    def decode_iteration_time(self, contexts: Sequence[int]) -> float:
        """Duration of one pure-decode iteration over the given contexts."""
        linear = 0.0
        attention = 0.0
        table = self.batcher.decode_table
        pairs = table.pairs
        for context in contexts:
            pair = pairs.get(context)
            if pair is None:
                pair = table.pair(context)
            linear += pair[0]
            attention += pair[1]
        return self._pair_time(linear, attention, len(contexts))

    def iteration_time(self, plan: IterationPlan) -> float:
        """Duration of one planned iteration.

        The reference arithmetic is the ordered fold: prefill chunks, then
        decode pairs, summed per component from zero.  When the plan carries
        the batcher's exact decode totals, the prefill chunks are summed and
        the totals added once; with integer-valued components and a result
        below :data:`EXACT_FLOPS_BOUND` both sums are the same exact integer.
        """
        linear = 0.0
        attention = 0.0
        integral = True
        for state, chunk in plan.prefill:
            flops = _prefill_flops_cached(
                self.model, chunk, state.prefilled,
                state.prefilled + chunk >= state.prefill_target,
            )
            linear += flops.linear
            attention += flops.attention
            integral = integral and flops.linear.is_integer() and flops.attention.is_integer()
        decode = plan.decode_flops
        if decode is not None and integral:
            total_linear = linear + decode[0]
            total_attention = attention + decode[1]
            if total_linear < EXACT_FLOPS_BOUND and total_attention < EXACT_FLOPS_BOUND:
                return self._pair_time(total_linear, total_attention, plan.batch_tokens)
        table = self.batcher.decode_table
        for state in plan.decode:
            pair = table.pair(state.context_tokens)
            linear += pair[0]
            attention += pair[1]
        return self._pair_time(linear, attention, plan.batch_tokens)

    def prefill_budget(self) -> Optional[int]:
        """SLO-aware prefill budget for the next iteration.

        Inverts the cost model: the largest prefill token count that keeps
        the iteration — decode steps included — under ``tpot_cap``.  Returns
        ``None`` (no throttle) when the cap is unset or nothing is decoding;
        never throttles below the batcher's minimum chunk, so prefill cannot
        starve outright.
        """
        cap = self.config.tpot_cap
        batcher = self.batcher
        if cap is None or batcher.decode_only:
            return None
        num_decodes = batcher.decode_count
        if not num_decodes:
            return None
        # Price the hypothetical chunk at the deepest in-flight prefill
        # offset: long contexts make the chunk's attention cost dwarf its
        # linear cost, and estimating at offset 0 would approve budgets that
        # blow the cap by orders of magnitude at 512K contexts.  Every
        # running request not decoding is prefilling.
        kv_offset = 0
        if len(batcher.running) > num_decodes:
            kv_offset = max(
                s.prefilled for s in batcher.running if s.phase is Phase.PREFILL
            )
        # The decode steps' FLOPs: the batcher's running totals (equal to the
        # ordered fold over the running decodes; see ``decode_flops``).
        base_linear, base_attention = batcher.decode_flops()
        num_layers = self.model.num_layers

        def estimate(prefill_tokens: int) -> float:
            chunk = layer_forward_flops(self.model, prefill_tokens, kv_offset)
            return self._pair_time(
                base_linear + chunk.linear * num_layers,
                base_attention + chunk.attention * num_layers,
                prefill_tokens + num_decodes,
            )

        floor = self.config.batcher.min_prefill_chunk_tokens
        ceiling = self.config.batcher.max_batch_tokens
        if estimate(floor) > cap:
            return floor
        if estimate(ceiling) <= cap:
            return ceiling
        lo, hi = floor, ceiling
        while hi - lo > 64:
            mid = (lo + hi) // 2
            if estimate(mid) <= cap:
                lo = mid
            else:
                hi = mid
        return lo

    # ------------------------------------------------------------------
    # The stepping core
    # ------------------------------------------------------------------
    def decode_stretch_length(self) -> int:
        """Iterations the current batch can decode without a structural event.

        Zero when the batch is not a stable pure-decode set (work waiting,
        prefill in flight, empty pool, or batch over the token budget).
        Otherwise the bound is the tightest of

        * the first request to finish (its final iteration runs naively so
          departure bookkeeping stays on the reference path), and
        * the first decode step whose KV-block growth the pool cannot
          satisfy (that iteration must go through preemption planning).

        Arrivals are the caller's bound: :meth:`start` folds only the steps
        that end before its horizon.
        """
        if not self.config.fast_forward:
            return 0
        batcher = self.batcher
        if batcher.waiting:
            return 0
        running = batcher.running
        n = len(running)
        if n == 0 or n > self.config.batcher.max_batch_tokens or n != batcher.decode_count:
            return 0
        allocator = self.allocator
        limit: Optional[int] = None
        for state in running:
            # Every running request is decoding (the count check above).  The
            # stretch arithmetic assumes the steady decode invariant
            # "reservation == context - 1" (the token being generated claims
            # its slot next step).  A request that just re-prefilled a
            # crash-transferred context still reserves its full context until
            # its first decode commit — step that iteration naively.
            request = state.record.request
            context = request.prompt_tokens + state.decoded
            if allocator.tokens_of(request.request_id) != context - 1:
                return 0
            remaining = request.output_tokens - state.decoded
            if limit is None or remaining < limit:
                limit = remaining
        steps = limit - 1
        if steps < 1:
            return 0
        contexts = [state.context_tokens for state in running]
        block_tokens = allocator.block_tokens
        held = [allocator.blocks_held(state.request.request_id) for state in running]
        free = allocator.free_blocks

        def growth(step: int) -> int:
            """Extra blocks needed by the reservations of iteration ``step``."""
            need = 0
            for context, blocks in zip(contexts, held):
                extra = (context + step + block_tokens - 1) // block_tokens - blocks
                if extra > 0:
                    need += extra
            return need

        # ``free`` excludes unreferenced shared prefix blocks on purpose: a
        # step that would have to reclaim cache space must run on the naive
        # path (reclamation changes stored tokens, which the stretch tracks
        # incrementally).  The common case needs exactly one growth probe.
        if growth(steps - 1) > free:
            if growth(0) > free:
                return 0  # the very next decode step already needs preemption
            low, high = 0, steps - 1  # growth(low) fits, growth(high) does not
            while high - low > 1:
                mid = (low + high) // 2
                if growth(mid) <= free:
                    low = mid
                else:
                    high = mid
            steps = low + 1
        return steps

    @property
    def in_stretch(self) -> bool:
        """Whether the in-flight iteration is a step of a decode stretch."""
        return self._stretch is not None

    def truncate_stretch(self) -> None:
        """End the decode stretch after the in-flight iteration.

        Called when work joins the pool: the iteration in flight still
        matches the naive stepper (work arriving mid-iteration is seen by the
        next plan), but every later step must be replanned.
        """
        self._stretch_left = 0

    def start(
        self, now: float, horizon: float = math.inf, slack: float = 0.0, slowdown: float = 1.0
    ) -> Optional[float]:
        """Start the next iteration of an idle pool with work at ``now``; return its end.

        A stable pure-decode batch starts, or continues, a decode stretch:
        the steps that end strictly before ``horizon`` (``end + slack <
        horizon``) fold here (:meth:`_fold_stretch`) and the next step is
        the in-flight iteration.  Otherwise the batcher plans, preempting a
        victim and replanning while the plan is empty, and the plan is
        priced.  Every duration is scaled by ``slowdown``.  Returns ``None``
        when no batch can run: the caller then waits for an arrival or a
        token-bucket refill, or reports a stall.
        """
        batcher = self.batcher
        if self._track_now:
            batcher.now = now
        prof = self.obs.profiler if self.obs is not None else None
        clock_start = prof.clock() if prof is not None else 0.0
        if self._stretch is not None:
            self._stretch_left -= 1
        else:
            steps = self.decode_stretch_length()
            if steps:
                running = batcher.running
                self._stretch = IterationPlan(prefill=[], decode=list(running))
                self._stretch_ids = [state.request.request_id for state in running]
                self._stretch_left = steps - 1
                self._stretch_start = now
                self._stretch_done = 0
        if self._stretch is not None:
            if self._stretch_left and now < horizon:
                now = self._fold_stretch(now, horizon, slack, slowdown)
            # The step's reservations are the ones the naive plan would make
            # (the token each request generates claims its slot), so the KV
            # utilization read when it completes matches the naive stepper.
            self.allocator.bulk_reserve_decode(self._stretch_ids, 1)
            plan = batcher._attach_decode_flops(self._stretch)
            phase = "fast-forward"
        else:
            while True:
                plan = batcher.plan(self.prefill_budget())
                if not plan.empty or batcher._preempt_victim(plan) is None:
                    break  # a runnable batch, or nobody left to preempt
            phase = "admission"
        if prof is not None:
            prof.add(phase, prof.clock() - clock_start)
        if plan.empty:
            return None
        clock_start = prof.clock() if prof is not None else 0.0
        duration = self.iteration_time(plan) * slowdown
        if prof is not None:
            prof.add("pricing", prof.clock() - clock_start)
        self.busy = plan
        self._busy_duration = duration
        return now + duration

    def _fold_stretch(self, now: float, horizon: float, slack: float, slowdown: float) -> float:
        """Run the stretch steps that end before ``horizon``; return the last end.

        Step ``k`` of the fold prices from ``(L + k*GL, A + k*GA)``: the
        batcher's exact decode totals plus ``k`` times the batch's one-token
        growth.  A decode step's FLOPs are affine in its context (the linear
        part is constant and attention grows by a fixed amount per key), so
        that growth is the same at every step, and below
        :data:`EXACT_FLOPS_BOUND` the sum equals the totals the per-step
        path would hold, bit for bit.  Each step folds into the statistics
        exactly as :meth:`complete` would, in the same order; the KV
        utilization it reads grows by one token per request per step, so its
        peak is the last step's.  Afterwards the batch state is committed
        once (:meth:`commit_decode_stretch`).  When the totals are not
        exact, or the stretch could reach the bound, no step folds.
        """
        batcher = self.batcher
        totals = batcher.decode_growth()
        if totals is None:
            return now
        linear, attention, grow_linear, grow_attention = totals
        limit = self._stretch_left
        if (
            linear + limit * grow_linear >= EXACT_FLOPS_BOUND
            or attention + limit * grow_attention >= EXACT_FLOPS_BOUND
        ):
            return now
        pair_time = self._pair_time
        batch = batcher.decode_count
        allocator = self.allocator
        capacity = allocator.total_blocks * allocator.block_tokens
        stored = allocator.stored_tokens
        stats = self.stats
        kv_weighted = stats.kv_weighted
        busy_time = stats.busy_time
        utilization = 0.0
        steps = 0
        while steps < limit:
            duration = pair_time(
                linear + steps * grow_linear, attention + steps * grow_attention, batch
            ) * slowdown
            end = now + duration
            if end + slack >= horizon:
                break
            steps += 1
            stored += batch
            utilization = stored / capacity
            kv_weighted += utilization * duration
            busy_time += duration
            now = end
        if not steps:
            return now
        self.cap.spend(steps)
        stats.iterations += steps
        stats.kv_weighted = kv_weighted
        stats.busy_time = busy_time
        stats.kv_peak = max(stats.kv_peak, utilization)
        self._stretch_left -= steps
        self._stretch_done += steps
        self.commit_decode_stretch(steps)
        if batcher.decode_flops() != (
            linear + steps * grow_linear, attention + steps * grow_attention
        ):
            raise RuntimeError(
                "decode-step FLOPs are not affine in the context, so the "
                "folded stretch was mispriced; run with fast_forward=False"
            )
        return now

    def commit_decode_stretch(self, steps: int) -> None:
        """Credit ``steps`` folded stretch steps to the batch and commit its KV.

        Every stretch decode gains ``steps`` tokens (decode totals included)
        and its reservation grows by as many (the token the last step
        generated claims its slot next step), in one allocator pass.
        """
        self.batcher.advance_decodes(self._stretch.decode, steps)
        self.allocator.bulk_reserve_decode(self._stretch_ids, steps)

    def complete(self, now: float) -> List[RequestState]:
        """Complete the in-flight iteration, which ends at ``now``.

        Folds it into :attr:`stats` (with the KV utilization the iteration
        leaves before its commit), spends one iteration of :attr:`cap`,
        records its event, and commits it.  A stretch step
        credits one decoded token per request — all the commit does for a
        pure-decode plan with no departure — and the stretch's last step
        emits its STRETCH roll-up.  Returns the requests that left the pool.
        """
        plan = self.busy
        duration = self._busy_duration
        self.busy = None
        utilization = self.allocator.token_utilization
        stats = self.stats
        stats.kv_weighted += utilization * duration
        stats.busy_time += duration
        stats.kv_peak = max(stats.kv_peak, utilization)
        stats.iterations += 1
        self.cap.spend(1)
        batcher = self.batcher
        if plan is self._stretch:
            batcher.advance_decodes(plan.decode, 1)
            self._stretch_done += 1
            if not self._stretch_left:
                self._emit_stretch(now, utilization)
                self._stretch = None
            return []
        obs = self.obs
        if obs is not None and self.iteration_event_first:
            self._emit_iteration(now, plan, duration, utilization)
        prof = obs.profiler if obs is not None else None
        clock_start = prof.clock() if prof is not None else 0.0
        departed = batcher.commit(plan, now)
        if prof is not None:
            prof.add("commit", prof.clock() - clock_start)
        if obs is not None and not self.iteration_event_first:
            self._emit_iteration(now, plan, duration, utilization)
        return departed

    def abort(self, now: float) -> None:
        """Drop the in-flight iteration: the pool's machine failed at ``now``.

        A stretch's completed steps still roll up into a STRETCH event, so
        the trace shows the work that did happen.  In-flight prefill chunks
        are treated like work later discarded by a preemption — they were
        counted as prefilled when planned, so their requests' ``prefilled``
        advances to match before the requeue accounting.
        """
        if self._stretch is not None and self._stretch_done:
            self._emit_stretch(now, self.allocator.token_utilization)
        if self.busy is not None:
            for state, chunk in self.busy.prefill:
                state.prefilled += chunk
        self.busy = None
        self._stretch = None

    def _emit_iteration(
        self, now: float, plan: IterationPlan, duration: float, utilization: float
    ) -> None:
        batcher = self.batcher
        self.obs.emit(
            now, obs_events.ITERATION, batcher.obs_track, None,
            (
                duration,
                plan.prefill_tokens,
                len(plan.decode),
                len(batcher.waiting),
                len(batcher.running),
                utilization,
            ),
        )

    def _emit_stretch(self, now: float, utilization: float) -> None:
        """Roll the stretch's uniform steps up into one STRETCH event."""
        if self.obs is not None:
            self.obs.emit(
                now, obs_events.STRETCH, self.batcher.obs_track, None,
                (self._stretch_done, len(self._stretch.decode), self._stretch_start, utilization),
            )

    # ------------------------------------------------------------------
    # The serving loop
    # ------------------------------------------------------------------
    def run(
        self,
        states: Union[Sequence[RequestState], Iterator[RequestState]],
        on_depart: Callable[[RequestState], None],
        device: int = 0,
    ) -> float:
        """Drain ``states`` through the stepping core.

        Ingests every arrival due by ``now`` (within 1e-12), starts the next
        iteration with the next arrival as its horizon — an arrival the
        in-flight iteration reaches ends its decode stretch — and completes
        it.  An idle pool jumps to the next arrival, or to a token-bucket
        refill.  Every departure goes to ``on_depart`` (the pool retains no
        per-request state past it); events go to track ``device``.  Returns
        the time the pool drained.
        """
        if isinstance(states, Sequence):
            stream: Iterator[RequestState] = iter(
                sorted(states, key=lambda s: (s.pool_arrival, s.request.request_id))
            )
        else:
            # Streaming input: states are pulled one at a time, so the pool
            # never materializes the trace.  The caller guarantees
            # non-decreasing ``pool_arrival`` order (the engines validate).
            stream = iter(states)
        upcoming = next(stream, None)
        batcher = self.batcher
        batcher.obs_track = device
        obs = self.obs
        if obs is not None:
            obs.register_track(device, self.track_name)
        self.stats = PoolStats()
        self.cap = _IterationCap(self.config.max_iterations, "serving loop")
        now = 0.0
        while True:
            while upcoming is not None and upcoming.pool_arrival <= now + 1e-12:
                batcher.enqueue(upcoming)
                if obs is not None:
                    obs.emit(
                        upcoming.pool_arrival, obs_events.ARRIVE, device,
                        upcoming.request.request_id,
                    )
                upcoming = next(stream, None)
            horizon = upcoming.pool_arrival if upcoming is not None else math.inf
            if not batcher.has_work:
                if upcoming is None:
                    break
                now = horizon
                continue
            end = self.start(now, horizon, slack=1e-12)
            if end is None:
                # An idle pool with queued work is either waiting out a
                # token-bucket refill (jump to the earliest grant time) or a
                # future arrival — whichever unblocks first.
                ready = batcher.next_admission_time() if self._track_now else None
                if ready is not None and ready > now + 1e-12:
                    horizon = min(horizon, ready)
                if horizon == math.inf:
                    raise RuntimeError(
                        "serving pool stalled with queued work and no runnable batch"
                    )
                now = horizon
                continue
            if end + 1e-12 >= horizon:
                self.truncate_stretch()  # the arrival joins the next plan
            now = end
            for state in self.complete(now):
                on_depart(state)
        return now


def _arrival_key(request: Request) -> Tuple[float, int]:
    return (request.arrival_time, request.request_id)


def _metrics_fold(
    slo: SLO, tenancy: Optional[TenancyConfig], retain_records: bool
) -> StreamingMetrics:
    """A run's metrics fold: exact quantiles exactly when records are kept."""
    return StreamingMetrics(
        slo,
        tenant_slos=tenancy.slo_map() if tenancy is not None else None,
        exact=retain_records,
    )


class ServingEngine:
    """Colocated continuous-batching deployment (prefill + decode, one pool)."""

    def __init__(self, model: ModelConfig, config: Optional[ServingConfig] = None):
        self.model = model
        self.config = config or ServingConfig()
        self.pool = _Pool(model, self.config.num_gpus, self.config)

    def run(self, trace: Iterable[Request], slo: Optional[SLO] = None) -> ServingResult:
        """Serve ``trace``, folding every departure into one metrics fold.

        A ``Sequence`` trace is served in ``(arrival_time, request_id)``
        order and its records come back in trace order.  Any other iterable
        is pulled one request at a time (it may be a generator a million
        requests long) and must already be sorted by ``arrival_time``.  With
        ``retain_records=False`` no record is kept: each is made as its
        request arrives and dropped at departure, so fed an iterator, peak
        memory is set by the batch, the KV pool and the sketches, not by the
        trace length.
        """
        slo = slo or SLO()
        retain = self.config.retain_records
        fold = _metrics_fold(slo, self.config.tenancy, retain)
        records: List[RequestRecord] = []
        # An iterator's trace order is its arrival order, so its records are
        # kept as they arrive.
        collect = False
        if not isinstance(trace, Sequence):
            ordered: Iterable[RequestRecord] = (RequestRecord(r) for r in trace)
            collect = retain
        elif retain:
            records = [RequestRecord(request) for request in trace]
            ordered = sorted(records, key=lambda record: _arrival_key(record.request))
        else:
            # Records are made one at a time and dropped at departure, so
            # none outlives its fold.
            ordered = (RequestRecord(r) for r in sorted(trace, key=_arrival_key))
        # The generator below runs inside the pool loop; the first arrival
        # anchors the run's duration measurement.
        first_arrival: List[float] = []

        def arrivals() -> Iterator[RequestState]:
            last = float("-inf")
            for record in ordered:
                arrival = record.request.arrival_time
                if arrival < last:
                    raise ValueError(
                        "trace iterators must be sorted by arrival_time "
                        f"(request {record.request.request_id!r} arrives at "
                        f"{arrival!r} after {last!r}); pass a list to have "
                        "it sorted"
                    )
                if not first_arrival:
                    first_arrival.append(arrival)
                last = arrival
                if collect:
                    records.append(record)
                yield RequestState(record=record)

        end_time = self.pool.run(arrivals(), lambda state: fold.observe(state.record))
        duration = max(end_time - first_arrival[0], 1e-12) if first_arrival else 0.0
        stats = self.pool.stats
        counters = PoolCounters.of([self.pool])
        return ServingResult(
            mode="colocated",
            metrics=counters.finalize(fold, duration, stats.kv_mean, stats.kv_peak),
            records=records,
            iterations=stats.iterations,
            kv_capacity_tokens=self.pool.kv_capacity_tokens,
            retain_records=retain,
            tenant_metrics=fold.tenant_metrics(duration),
            **vars(counters),
        )


class DisaggregatedEngine:
    """Prefill/decode disaggregation with comm-priced KV hand-off.

    The prefill pool drains the trace independently of the decode pool (its
    work never depends on decode state), so the simulation runs the pools in
    sequence: prefill completions, shifted by the per-request KV transfer
    time, become the decode pool's arrival trace.  TTFT is measured at the
    prefill pool — the prefill instance samples the first token — matching
    disaggregated serving practice.
    """

    def __init__(
        self,
        model: ModelConfig,
        config: Optional[ServingConfig] = None,
        prefill_fraction: float = 0.5,
        topology: Optional[ClusterTopology] = None,
    ):
        self.model = model
        self.config = config or ServingConfig()
        if not self.config.retain_records:
            raise ValueError(
                "retain_records=False (streaming) requires the colocated "
                "engine: disaggregation replays the prefill pool's full "
                "departure list into the decode pool"
            )
        if not 0.0 < prefill_fraction < 1.0:
            raise ValueError("prefill_fraction must be in (0, 1)")
        total = self.config.num_gpus
        prefill_gpus = min(total - 1, max(1, round(total * prefill_fraction)))
        decode_gpus = total - prefill_gpus
        if total < 2:
            raise ValueError("disaggregation needs at least 2 GPUs")
        self.prefill_gpus = prefill_gpus
        self.decode_gpus = decode_gpus
        self.topology = topology or ClusterTopology(
            num_nodes=max(1, -(-total // 8)), gpus_per_node=min(8, total)
        )
        # The prefill pool runs no decodes, so the TPOT cap does not apply.
        self.prefill_pool = _Pool(
            model,
            prefill_gpus,
            replace(self.config, tpot_cap=None),
            prefill_only=True,
        )
        # No prefill runs on the decode pool either, so its cap is moot too.
        self.decode_pool = _Pool(
            model,
            decode_gpus,
            replace(self.config, tpot_cap=None),
            decode_only=True,
        )

    def _transfer_time(self, prompt_tokens: int) -> float:
        kv_bytes = (
            kv_cache_bytes_per_token_per_layer(self.model, tensor_parallel_size=1)
            * self.model.num_layers
            * prompt_tokens
        )
        intra = self.topology.fits_in_node(self.prefill_gpus + self.decode_gpus)
        return CommModel(self.topology).p2p_time(kv_bytes, intra_node=intra)

    def run(self, trace: Sequence[Request], slo: Optional[SLO] = None) -> ServingResult:
        slo = slo or SLO()
        fold = _metrics_fold(slo, self.config.tenancy, retain_records=True)
        states = [RequestState(record=RequestRecord(request)) for request in trace]
        departed: List[RequestState] = []
        prefill_end = self.prefill_pool.run(states, departed.append)

        handoffs: List[RequestState] = []
        for state in departed:
            if state.phase is not Phase.HANDOFF:
                # Finished at prefill (single-output-token request).
                fold.observe(state.record)
                continue
            handoffs.append(
                RequestState(
                    record=state.record,
                    prefilled=state.request.prompt_tokens,
                    decoded=state.decoded,
                    pool_arrival=state.record.first_token_time
                    + self._transfer_time(state.request.prompt_tokens),
                )
            )
        decode_end = self.decode_pool.run(
            handoffs, lambda state: fold.observe(state.record), device=1
        )

        records = [state.record for state in states]
        end_time = max(prefill_end, decode_end)
        duration = (
            max(end_time - min(r.request.arrival_time for r in records), 1e-12)
            if records
            else 0.0
        )
        # Combine pool KV statistics weighted by each pool's busy time (the
        # decode pool idles until the first hand-off arrives, so wall-clock
        # end times would over-weight it).
        both = (self.prefill_pool.stats, self.decode_pool.stats)
        weight = sum(stats.busy_time for stats in both)
        kv_mean = sum(s.kv_mean * s.busy_time for s in both) / weight if weight > 0 else 0.0
        counters = PoolCounters.of([self.prefill_pool, self.decode_pool])
        return ServingResult(
            mode="disaggregated",
            metrics=counters.finalize(
                fold, duration, kv_mean, max(stats.kv_peak for stats in both)
            ),
            records=records,
            iterations=sum(stats.iterations for stats in both),
            kv_capacity_tokens=self.prefill_pool.kv_capacity_tokens
            + self.decode_pool.kv_capacity_tokens,
            tenant_metrics=fold.tenant_metrics(duration),
            **vars(counters),
        )
