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

Decode fast-forwarding
----------------------
Most iterations of a drained trace are *pure decode over a stable batch*: no
request waiting, no prefill chunk in flight, nothing finishing, no KV block
pressure.  Stepping those one at a time re-runs the scheduler, the SLO
budget search and the FLOPs pricing only to conclude "the same batch decodes
one more token".  With ``ServingConfig.fast_forward`` (the default) the pool
detects such a stretch, bounds its safe length analytically (next arrival,
first finishing request, first un-satisfiable KV-block growth) and executes
it in one coalesced inner loop that replays *bit-identical* per-iteration
arithmetic — durations, KV-utilization integrals and timestamps come out
byte-equal to the naive stepper, which stays available as the reference
oracle via ``fast_forward=False``.

Iterations that do not coalesce are priced from the batcher's running
decode-FLOPs totals (:meth:`ContinuousBatcher.decode_flops`): the decode
part of an iteration and the prefill-budget search cost O(prefill chunks),
not O(batch).  FLOPs components are integer-valued floats, so below
:data:`~repro.serving.batcher.EXACT_FLOPS_BOUND` (2^53) the totals equal the
ordered per-iteration fold bit for bit; at or above it pricing takes that
ordered fold instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..hardware.comm import CommModel
from ..hardware.gpu import GPUSpec, HOPPER_80GB
from ..hardware.topology import ClusterTopology
from ..model.config import ModelConfig
from ..obs import events as obs_events
from ..obs.events import EventRecorder
from ..model.costs import CostModel, PassKind
from ..model.flops import FlopsBreakdown, layer_forward_flops, output_layer_flops
from ..model.memory import kv_cache_bytes_per_token_per_layer
from ..schedules.base import Pass
from ..sim.timeline import Timeline, TimelineSpan
from .batcher import (
    EXACT_FLOPS_BOUND,
    BatcherConfig,
    ContinuousBatcher,
    DecodeFlopsTable,
    IterationPlan,
    Phase,
    RequestState,
)
from .columnar import DecodeColumns
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
    #: Keep every :class:`RequestRecord` (and the iteration timeline) in the
    #: result.  Either way finished requests fold into one
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
        if self.tpot_cap is not None and self.tpot_cap <= 0:
            raise ValueError("tpot_cap must be positive when given")


@dataclass
class ServingResult:
    """Everything one simulated serving run produced."""

    mode: str
    metrics: ServingMetrics
    records: List[RequestRecord]
    timeline: Timeline
    iterations: int
    kv_capacity_tokens: int
    tokens_admitted: int
    tokens_prefilled: int
    tokens_preempted_requeued: int
    preemptions: int
    #: Shared-prefix caching outcomes (all zero when ``prefix_caching=False``).
    prefix_hit_tokens: int = 0
    prefix_hit_requests: int = 0
    prefix_flops_saved: float = 0.0
    prefill_flops_executed: float = 0.0
    prefix_evictions: int = 0
    #: ``False`` when the run kept no records: ``records`` is empty,
    #: ``timeline`` has no spans and the percentiles are P²-sketched.
    retain_records: bool = True
    #: Per-tenant aggregates, keyed by tenant name.  Empty unless the trace
    #: carried tenant tags.
    tenant_metrics: Dict[str, TenantMetrics] = field(default_factory=dict)

    @property
    def token_accounting_balanced(self) -> bool:
        """The engine's conservation law over a fully drained trace."""
        return self.tokens_admitted == self.tokens_prefilled + self.tokens_preempted_requeued

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of required prompt tokens served from the prefix cache."""
        required = self.prefix_hit_tokens + self.tokens_prefilled
        return self.prefix_hit_tokens / required if required else 0.0


@dataclass
class _PoolRun:
    """Outcome of draining one pool."""

    end_time: float
    departed: List[RequestState]
    iterations: int
    kv_mean: float
    kv_peak: float
    busy_time: float


#: Decode-batch size above which the stretch planner switches from the
#: scalar growth fold to the columnar (numpy) plan.  Below it, array
#: construction costs more than it saves; both paths are integer-exact and
#: interchangeable (pinned by the fast-forward equivalence suite).
COLUMNAR_MIN_BATCH = 64


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
    """One GPU pool: allocator + batcher + cost model + event loop."""

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
        # Columnar snapshot of the batch behind the most recent successful
        # stretch plan; the stretch executor reuses it for the bulk commit.
        self._stretch_columns: Optional[DecodeColumns] = None

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

    def running_decode_time(self) -> float:
        """Duration of one pure-decode iteration over the running decodes.

        Priced from the batcher's decode totals, so it equals
        :meth:`decode_iteration_time` over their contexts in running order.
        """
        linear, attention = self.batcher.decode_flops()
        return self._pair_time(linear, attention, self.batcher.decode_count)

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
    # Decode fast-forwarding
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

        Arrivals are the caller's bound: the stretch executor stops as soon
        as simulated time reaches the next arrival.
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
        if n < COLUMNAR_MIN_BATCH:
            # Small batches: the scalar fold beats the columnar plan's numpy
            # array construction (fleet replicas and chat-scale pools live
            # here), and the common case needs exactly one growth probe.
            self._stretch_columns = None
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

            # ``free`` excludes unreferenced shared prefix blocks on purpose:
            # a step that would have to reclaim cache space must run on the
            # naive path (reclamation changes stored tokens, which the
            # stretch tracks incrementally).
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
        # Columnar plan: context lengths and blocks held become int64 arrays,
        # so the KV-growth bound (and later the commit's reservation plan)
        # are vectorized folds — integer arithmetic, hence still bit-exact.
        columns = DecodeColumns(
            [state.request.request_id for state in running],
            [state.context_tokens for state in running],
            [allocator.blocks_held(state.request.request_id) for state in running],
            allocator.block_tokens,
        )
        # ``free_blocks`` excludes unreferenced shared prefix blocks on
        # purpose: a step that would have to reclaim cache space must run on
        # the naive path (reclamation changes stored tokens, which the
        # stretch tracks incrementally).
        steps = columns.stretch_bound(steps, allocator.free_blocks)
        self._stretch_columns = columns if steps > 0 else None
        return steps

    def start_decode_step(self, request_ids: List[int]) -> float:
        """Reserve one stretch step's KV for the running decodes; price the step.

        The reservations the naive :meth:`ContinuousBatcher.plan` would make
        for the step (the token each request generates claims its slot), so
        the KV utilization read when the step ends matches the naive
        stepper.  The growth moves block counts, so it drops any columnar
        stretch plan.
        """
        self._stretch_columns = None
        self.allocator.advance_decode_step(request_ids)
        return self.running_decode_time()

    def commit_decode_stretch(self, steps: int) -> None:
        """Credit ``steps`` decode steps to the running batch and commit its KV.

        The end-of-stretch commit both engines share: every running decode
        gains ``steps`` tokens (decode totals included) and its reservation
        grows to ``context - 1`` (the token the last step generated claims
        its slot next step).  Large batches commit through the columnar plan
        of the latest :meth:`decode_stretch_length`, which describes the
        batch as it stood before these steps; small ones grow per request,
        reserving only across block boundaries.  The two are exactly
        equivalent (``bulk_reserve_decode`` replays ``reserve``'s
        bookkeeping in the same order).
        """
        batcher = self.batcher
        running = batcher.running
        columns = self._stretch_columns
        batcher.advance_decodes(running, steps)
        allocator = self.allocator
        if columns is None:
            for state in running:
                rid = state.record.request.request_id
                reserved = state.context_tokens - 1
                if not allocator.grow_in_place(rid, reserved):
                    allocator.reserve(rid, reserved)
        else:
            new_totals, extra_blocks = columns.commit_plan(steps)
            allocator.bulk_reserve_decode(columns.request_ids, new_totals, extra_blocks)
            self._stretch_columns = None

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(
        self,
        states: Union[Sequence[RequestState], Iterator[RequestState]],
        timeline: Optional[Timeline] = None,
        device: int = 0,
        on_depart: Optional[Callable[[RequestRecord], None]] = None,
    ) -> _PoolRun:
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
        now = 0.0
        iterations = 0
        departed: List[RequestState] = []
        kv_weighted = 0.0
        kv_time = 0.0
        kv_peak = 0.0
        batcher = self.batcher
        allocator = self.allocator
        capacity_tokens = allocator.total_blocks * allocator.block_tokens
        max_iterations = self.config.max_iterations
        obs = self.obs
        prof = obs.profiler if obs is not None else None
        if obs is not None:
            obs.register_track(device, self.track_name)
            batcher.obs_track = device
        # Token buckets refill against the batcher's clock, so it must track
        # simulated time whenever admission control is live (the recorder
        # needs it for event timestamps anyway).
        track_now = obs is not None or bool(batcher._buckets)
        while True:
            while upcoming is not None and upcoming.pool_arrival <= now + 1e-12:
                batcher.enqueue(upcoming)
                if obs is not None:
                    obs.emit(
                        upcoming.pool_arrival, obs_events.ARRIVE, device,
                        upcoming.request.request_id,
                    )
                upcoming = next(stream, None)
            max_steps = self.decode_stretch_length()
            if max_steps > 0:
                # Coalesced decode stretch: replay the naive stepper's exact
                # per-iteration arithmetic (durations, KV integral, spans)
                # without replanning, repricing or reallocating per step.
                running = batcher.running
                n = len(running)
                horizon = upcoming.pool_arrival if upcoming is not None else None
                contexts = [state.context_tokens for state in running]
                # Physical occupancy, shared prefix blocks counted once; each
                # decode step then adds exactly one private token per request,
                # replaying the naive stepper's utilization reads bit-exactly.
                stored = allocator.stored_tokens
                steps = 0
                stretch_start = now
                clock_start = prof.clock() if prof is not None else 0.0
                while steps < max_steps:
                    duration = self.decode_iteration_time(contexts)
                    now += duration
                    iterations += 1
                    stored += n
                    utilization = stored / capacity_tokens
                    kv_weighted += utilization * duration
                    kv_time += duration
                    kv_peak = max(kv_peak, utilization)
                    if timeline is not None:
                        timeline.add(
                            TimelineSpan(
                                device=device,
                                work=Pass(
                                    kind=PassKind.FORWARD,
                                    microbatch=iterations - 1,
                                    stage=0,
                                    device=device,
                                ),
                                start=now - duration,
                                end=now,
                            )
                        )
                    if iterations > max_iterations:
                        raise RuntimeError(
                            f"serving loop exceeded {max_iterations} iterations"
                        )
                    contexts = [context + 1 for context in contexts]
                    steps += 1
                    if horizon is not None and horizon <= now + 1e-12:
                        break
                self.commit_decode_stretch(steps)
                if prof is not None:
                    prof.add("fast-forward", prof.clock() - clock_start)
                if obs is not None:
                    obs.emit(
                        now, obs_events.STRETCH, device, None,
                        (steps, n, stretch_start, stored / capacity_tokens),
                    )
                continue
            if not batcher.has_work:
                if upcoming is not None:
                    now = upcoming.pool_arrival
                    continue
                break
            if track_now:
                batcher.now = now
            clock_start = prof.clock() if prof is not None else 0.0
            plan = batcher.plan(self.prefill_budget())
            if prof is not None:
                prof.add("admission", prof.clock() - clock_start)
            if plan.empty:
                if batcher.running:
                    clock_start = prof.clock() if prof is not None else 0.0
                    victim = batcher._preempt_victim(plan)
                    if prof is not None:
                        prof.add("eviction", prof.clock() - clock_start)
                    if victim is not None:
                        continue  # freed blocks; replan
                # An idle pool with queued work is either waiting out a
                # token-bucket refill (jump to the earliest grant time) or a
                # future arrival — whichever unblocks first.
                jump = upcoming.pool_arrival if upcoming is not None else None
                ready = batcher.next_admission_time() if track_now else None
                if ready is not None and ready > now + 1e-12:
                    jump = ready if jump is None else min(jump, ready)
                if jump is not None:
                    now = jump
                    continue
                raise RuntimeError(
                    "serving pool stalled with queued work and no runnable batch"
                )
            clock_start = prof.clock() if prof is not None else 0.0
            duration = self.iteration_time(plan)
            if prof is not None:
                prof.add("pricing", prof.clock() - clock_start)
            now += duration
            iterations += 1
            utilization = allocator.token_utilization
            kv_weighted += utilization * duration
            kv_time += duration
            kv_peak = max(kv_peak, utilization)
            clock_start = prof.clock() if prof is not None else 0.0
            finished = batcher.commit(plan, now)
            if on_depart is None:
                departed.extend(finished)
            else:
                # Metrics consumer: fold the finished request in; the pool
                # retains no per-request state past departure.
                for state in finished:
                    on_depart(state.record)
            if prof is not None:
                prof.add("commit", prof.clock() - clock_start)
            if obs is not None:
                obs.emit(
                    now, obs_events.ITERATION, device, None,
                    (
                        duration,
                        plan.prefill_tokens,
                        len(plan.decode),
                        len(batcher.waiting),
                        len(batcher.running),
                        utilization,
                    ),
                )
            if timeline is not None:
                timeline.add(
                    TimelineSpan(
                        device=device,
                        work=Pass(
                            kind=PassKind.FORWARD,
                            microbatch=iterations - 1,
                            stage=0,
                            device=device,
                        ),
                        start=now - duration,
                        end=now,
                    )
                )
            if iterations > self.config.max_iterations:
                raise RuntimeError(
                    f"serving loop exceeded {self.config.max_iterations} iterations"
                )
        return _PoolRun(
            end_time=now,
            departed=departed,
            iterations=iterations,
            kv_mean=kv_weighted / kv_time if kv_time > 0 else 0.0,
            kv_peak=kv_peak,
            busy_time=kv_time,
        )


def _arrival_key(request: Request) -> Tuple[float, int]:
    return (request.arrival_time, request.request_id)


def _make_states(trace: Sequence[Request]) -> List[RequestState]:
    return [RequestState(record=RequestRecord(request)) for request in trace]


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
        ``retain_records=False`` neither records nor timeline spans are kept:
        each record is made as its request arrives and dropped at departure,
        so fed an iterator, peak memory is set by the batch, the KV pool and
        the sketches, not by the trace length.
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

        timeline = Timeline(num_devices=1)
        outcome = self.pool.run(
            arrivals(),
            timeline=timeline if retain else None,
            device=0,
            on_depart=fold.observe,
        )
        duration = max(outcome.end_time - first_arrival[0], 1e-12) if first_arrival else 0.0
        batcher = self.pool.batcher
        prefix = self.pool.allocator.prefix
        prefix_evictions = prefix.evicted_blocks if prefix is not None else 0
        required = batcher.prefix_hit_tokens + batcher.tokens_prefilled
        metrics = fold.finalize(
            duration,
            kv_utilization_mean=outcome.kv_mean,
            kv_utilization_peak=outcome.kv_peak,
            preemptions=batcher.preemptions,
            prefix_hit_rate=batcher.prefix_hit_tokens / required if required else 0.0,
            prefix_hit_tokens=batcher.prefix_hit_tokens,
            prefix_flops_saved=batcher.prefix_flops_saved,
            prefix_evictions=prefix_evictions,
        )
        return ServingResult(
            mode="colocated",
            metrics=metrics,
            records=records,
            timeline=timeline,
            iterations=outcome.iterations,
            kv_capacity_tokens=self.pool.kv_capacity_tokens,
            tokens_admitted=batcher.tokens_admitted,
            tokens_prefilled=batcher.tokens_prefilled,
            tokens_preempted_requeued=batcher.tokens_preempted_requeued,
            preemptions=batcher.preemptions,
            prefix_hit_tokens=batcher.prefix_hit_tokens,
            prefix_hit_requests=batcher.prefix_hit_requests,
            prefix_flops_saved=batcher.prefix_flops_saved,
            prefill_flops_executed=batcher.prefill_flops_executed,
            prefix_evictions=prefix_evictions,
            retain_records=retain,
            tenant_metrics=fold.tenant_metrics(duration),
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
        states = _make_states(trace)
        timeline = Timeline(num_devices=2)
        prefill_run = self.prefill_pool.run(states, timeline=timeline, device=0)

        handoffs: List[RequestState] = []
        for state in prefill_run.departed:
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
        decode_run = self.decode_pool.run(
            handoffs, timeline=timeline, device=1, on_depart=fold.observe
        )

        records = [state.record for state in states]
        end_time = max(prefill_run.end_time, decode_run.end_time)
        duration = (
            max(end_time - min(r.request.arrival_time for r in records), 1e-12)
            if records
            else 0.0
        )
        # Combine pool KV statistics weighted by each pool's busy time (the
        # decode pool idles until the first hand-off arrives, so wall-clock
        # end times would over-weight it).
        spans = [
            (prefill_run.kv_mean, prefill_run.busy_time),
            (decode_run.kv_mean, decode_run.busy_time),
        ]
        weight = sum(w for _, w in spans)
        kv_mean = sum(v * w for v, w in spans) / weight if weight > 0 else 0.0
        preemptions = self.prefill_pool.batcher.preemptions + self.decode_pool.batcher.preemptions
        pf, dc = self.prefill_pool.batcher, self.decode_pool.batcher
        prefix = self.prefill_pool.allocator.prefix
        prefix_evictions = prefix.evicted_blocks if prefix is not None else 0
        hit_tokens = pf.prefix_hit_tokens + dc.prefix_hit_tokens
        prefilled = pf.tokens_prefilled + dc.tokens_prefilled
        required = hit_tokens + prefilled
        metrics = fold.finalize(
            duration,
            kv_utilization_mean=kv_mean,
            kv_utilization_peak=max(prefill_run.kv_peak, decode_run.kv_peak),
            preemptions=preemptions,
            prefix_hit_rate=hit_tokens / required if required else 0.0,
            prefix_hit_tokens=hit_tokens,
            prefix_flops_saved=pf.prefix_flops_saved + dc.prefix_flops_saved,
            prefix_evictions=prefix_evictions,
        )
        return ServingResult(
            mode="disaggregated",
            metrics=metrics,
            records=records,
            timeline=timeline,
            iterations=prefill_run.iterations + decode_run.iterations,
            kv_capacity_tokens=self.prefill_pool.kv_capacity_tokens
            + self.decode_pool.kv_capacity_tokens,
            tokens_admitted=pf.tokens_admitted + dc.tokens_admitted,
            tokens_prefilled=prefilled,
            tokens_preempted_requeued=pf.tokens_preempted_requeued
            + dc.tokens_preempted_requeued,
            preemptions=preemptions,
            prefix_hit_tokens=hit_tokens,
            prefix_hit_requests=pf.prefix_hit_requests + dc.prefix_hit_requests,
            prefix_flops_saved=pf.prefix_flops_saved + dc.prefix_flops_saved,
            prefill_flops_executed=pf.prefill_flops_executed + dc.prefill_flops_executed,
            prefix_evictions=prefix_evictions,
            tenant_metrics=fold.tenant_metrics(duration),
        )
