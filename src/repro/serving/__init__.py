"""Long-context inference serving simulator.

The serving package is the inference-side dual of the training simulator: it
prices continuous-batching deployments of the paper's models on the same
cost/memory/topology substrates (``repro.model``, ``repro.hardware``) and
reuses the chunked KV cache of Section 5 as the block pool of a paged,
request-granular allocator.

Modules
-------
``workload``
    Deterministic request-trace generators (Poisson, bursty, long-context,
    diurnal/weekly rate curves, replay) plus the shared-prefix families
    (common system prompt, Zipf RAG corpus, agentic prefix trees) whose
    requests declare symbolic ``Request.prefix`` segments.  Every generator
    also has a lazy ``*_stream`` form — the list APIs are thin wrappers —
    so million-request traces never need to be materialized.
``paged_kv``
    Paged KV-cache allocator with block tables and eviction accounting,
    built on :class:`~repro.core.kv_cache.ChunkedKVCache`; optionally backs
    the leading blocks of a request by shared, reference-counted prefix
    blocks (``prefix_caching=True``).
``prefix_cache``
    The shared-prefix index itself: a radix tree of published KV blocks
    with copy-on-write refcounts and LRU eviction of unreferenced blocks.
``batcher``
    Continuous batching: token-budget admission, chunked prefill, FCFS,
    priority and weighted-fair (virtual-token-counter) policies,
    memory-pressure preemption with per-tenant preemption costs,
    token-bucket gating, prefix-cache consultation on admission and block
    publication as prefill commits.
``engine``
    The stepping core every pool runs on (including each fleet replica),
    and the serving engines it drives — colocated, and prefill/decode
    disaggregated with comm-priced KV hand-off.
``metrics``
    TTFT/TPOT/E2E percentiles, goodput under SLO, KV utilization, prefix
    hit rate and saved prefill FLOPs, plus per-tenant aggregates
    (``TenantMetrics``), all from one fold (``StreamingMetrics``) with an
    exact or a bounded-memory P² quantile backend; ``compute_metrics`` folds
    a finished record list.
``tenancy``
    Multi-tenant QoS: named SLO classes (interactive / batch /
    best-effort), per-tenant weights and token-bucket admission control
    (``TenancyConfig`` / ``TenantSpec``), consumed by the batcher's
    ``fair`` policy.  Entirely opt-in: ``tenancy=None`` (the default)
    leaves every run byte-identical to a build without this module.
``scenarios``
    Named scenario registry (chat, RAG, 512K summarisation, bursty
    long-prompt, mixed fleet, shared-system-prompt, rag-shared-corpus,
    agentic-prefix-tree, plus the streaming ``massive-*`` family) and the
    ``run_scenario`` driver.
"""

from .batcher import BatcherConfig, ContinuousBatcher, IterationPlan, Phase, RequestState
from .engine import DisaggregatedEngine, ServingConfig, ServingEngine, ServingResult
from .metrics import (
    SLO,
    RequestRecord,
    ServingMetrics,
    StreamingMetrics,
    TenantMetrics,
    compute_metrics,
    percentile,
    tenant_report_text,
)
from .paged_kv import PagedKVAllocator, PagedKVStats, blocks_for_tokens
from .prefix_cache import PrefixCache, PrefixCacheStats, prefix_block_keys
from .scenarios import SCENARIO_REGISTRY, ServingScenario, get_scenario, run_scenario
from .tenancy import (
    SLO_CLASS_REGISTRY,
    SLOClass,
    TenancyConfig,
    TenantSpec,
    TokenBucket,
    get_slo_class,
)
from .workload import (
    Request,
    agentic_tree_trace,
    bursty_stream,
    bursty_trace,
    diurnal_stream,
    diurnal_trace,
    long_context_stream,
    long_context_trace,
    merge_traces,
    poisson_stream,
    poisson_trace,
    rag_corpus_stream,
    rag_corpus_trace,
    replay_trace,
    shared_prefix_stream,
    shared_prefix_trace,
    weekly_stream,
    weekly_trace,
)

__all__ = [
    "Request",
    "poisson_trace",
    "poisson_stream",
    "bursty_trace",
    "bursty_stream",
    "long_context_trace",
    "long_context_stream",
    "shared_prefix_trace",
    "shared_prefix_stream",
    "rag_corpus_trace",
    "rag_corpus_stream",
    "diurnal_trace",
    "diurnal_stream",
    "weekly_trace",
    "weekly_stream",
    "agentic_tree_trace",
    "replay_trace",
    "merge_traces",
    "PrefixCache",
    "PrefixCacheStats",
    "prefix_block_keys",
    "PagedKVAllocator",
    "PagedKVStats",
    "blocks_for_tokens",
    "BatcherConfig",
    "ContinuousBatcher",
    "IterationPlan",
    "Phase",
    "RequestState",
    "ServingConfig",
    "ServingEngine",
    "DisaggregatedEngine",
    "ServingResult",
    "SLO",
    "RequestRecord",
    "ServingMetrics",
    "StreamingMetrics",
    "TenantMetrics",
    "compute_metrics",
    "percentile",
    "tenant_report_text",
    "SLOClass",
    "SLO_CLASS_REGISTRY",
    "get_slo_class",
    "TenantSpec",
    "TenancyConfig",
    "TokenBucket",
    "ServingScenario",
    "SCENARIO_REGISTRY",
    "get_scenario",
    "run_scenario",
]
