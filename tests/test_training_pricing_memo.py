"""Memoized training pricing equals fresh, un-memoized pricing bit for bit.

Three oracles pin the memos of the pipeline simulator's providers and of the
grid search's shared estimator:

* every pass of every schedule family prices the same through a provider
  that has already priced the rest of the schedule as through a brand-new
  provider (durations, communication delays, stored and transient bytes);
* every memoized estimator term reads no :class:`ParallelConfig` field
  outside its key: perturbing any other field leaves the un-memoized result
  unchanged;
* ``best_configuration`` returns exactly the first highest-MFU estimate over
  fresh per-candidate ``evaluate`` calls, ``details`` included, although its
  bound-and-prune search evaluates only a fraction of the candidates; a
  scripted stub pins its tie rule and its ``oom`` / ``no-configuration``
  outcomes.
"""

import dataclasses
import functools
import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import tokens_from_k
from repro.core.schedule import build_slimpipe_schedule
from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_13B, LLAMA_70B, MIXTRAL_8X7B, MODEL_REGISTRY
from repro.model.memory import RecomputeMode
from repro.parallel.config import ParallelConfig, WorkloadConfig
from repro.schedules import build_schedule
from repro.schedules.formulas import SCHEME_FORMULAS
from repro.sim.providers import (
    ModelActivationAccountant,
    ModelCostProvider,
    spec_for_schedule,
)
from repro.systems import (
    AnalyticEstimator,
    DeepSpeedSystem,
    MegatronSystem,
    SchemeSystem,
    SlimPipeSystem,
)
from repro.systems.base import (
    INFEASIBLE_NO_CONFIG,
    INFEASIBLE_OOM,
    SystemEstimate,
    TrainingSystem,
)

# ----------------------------------------------------------------------------
# (a) simulator providers
# ----------------------------------------------------------------------------


def _schedule(scheme, p, m):
    """(schedule, virtual stages per device, slices) of one schedule family."""
    if scheme == "slimpipe-v2":
        return build_slimpipe_schedule(p, m, 2 * p, num_stages_per_device=2), 2, 2 * p
    if scheme == "slimpipe":
        return build_slimpipe_schedule(p, m, p), 1, p
    if scheme == "terapipe":
        return build_schedule(scheme, p, m, num_slices=2 * p), 1, 2 * p
    if scheme == "interleaved-1f1b":
        return build_schedule(scheme, p, m, num_chunks=2), 2, None
    if scheme == "zb-v":
        return build_schedule(scheme, p, m), 2, None
    return build_schedule(scheme, p, m), 1, None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scheme=st.sampled_from(["1f1b", "interleaved-1f1b", "zb-v", "terapipe", "slimpipe", "slimpipe-v2"]),
    p=st.sampled_from([2, 4]),
    microbatches_per_device=st.sampled_from([1, 2]),
    context_parallel=st.sampled_from([1, 2]),
    recompute=st.sampled_from(list(RecomputeMode)),
    context_exchange=st.booleans(),
    vocab_parallel=st.booleans(),
    exposed=st.sampled_from([0.0, 0.5, 1.0]),
    include_pipeline_comm=st.booleans(),
)
def test_memoized_pass_pricing_equals_fresh_provider(
    scheme, p, microbatches_per_device, context_parallel, recompute,
    context_exchange, vocab_parallel, exposed, include_pipeline_comm,
):
    schedule, v, slices = _schedule(scheme, p, p * microbatches_per_device)
    parallel = ParallelConfig(
        tensor_parallel_size=4,
        context_parallel_size=context_parallel,
        pipeline_parallel_size=p,
        virtual_pipeline_size=v,
        num_slices=slices,
    )
    cluster = hopper_cluster(parallel.world_size)
    spec = spec_for_schedule(
        schedule, LLAMA_13B, parallel, 16 * 1024,
        recompute=recompute,
        context_exchange=context_exchange,
        vocab_parallel=vocab_parallel,
        exchange_exposed_fraction=exposed,
    )
    costs = ModelCostProvider(spec, cluster, include_pipeline_comm=include_pipeline_comm)
    accountant = ModelActivationAccountant(spec, cluster)

    def fresh_costs():
        return ModelCostProvider(spec, cluster, include_pipeline_comm=include_pipeline_comm)

    def fresh_accountant():
        return ModelActivationAccountant(spec, cluster)

    for order in schedule.device_orders:
        for work in order:
            assert costs.duration(work) == fresh_costs().duration(work), work.describe()
            assert accountant.stored_bytes(work) == fresh_accountant().stored_bytes(work)
            assert accountant.transient_bytes(work) == fresh_accountant().transient_bytes(work)
            for dep in schedule.dependencies(work):
                assert costs.comm_delay(dep, work) == fresh_costs().comm_delay(dep, work)


# ----------------------------------------------------------------------------
# (b) estimator key soundness
# ----------------------------------------------------------------------------

#: Arguments (after the ParallelConfig) each memoized term is probed with.
_TERM_ARGS = {
    "microbatch_kernel_seconds": lambda seq, rc: ((seq, rc, 2, True, 2), {}),
    "tp_comm_seconds_per_microbatch": lambda seq, rc: ((seq,), {}),
    "cp_comm_seconds_per_microbatch": lambda seq, rc: ((seq,), {}),
    "ep_comm_seconds_per_microbatch": lambda seq, rc: ((seq,), {}),
    "pp_comm_seconds_per_microbatch": lambda seq, rc: ((seq, 4), {}),
    "dp_sync_seconds": lambda seq, rc: ((), {}),
    "model_state_bytes": lambda seq, rc: ((), {"vocab_parallel": True}),
    "microbatch_activation_bytes": lambda seq, rc: ((seq, rc), {}),
    "loss_logits_bytes": lambda seq, rc: ((seq, 2), {}),
}

_MEMOIZED_TERMS = {
    name: term
    for name, term in vars(AnalyticEstimator).items()
    if hasattr(term, "parallel_fields")
}

_PARALLEL_FIELDS = [f.name for f in dataclasses.fields(ParallelConfig)]

#: Values each ParallelConfig field is swept over (invalid combinations skipped).
_FIELD_VALUES = {
    "tensor_parallel_size": (1, 2, 4, 8),
    "context_parallel_size": (1, 2, 4, 8),
    "data_parallel_size": (1, 2, 4, 8),
    "expert_parallel_size": (1, 2, 8),
    "pipeline_parallel_size": (1, 2, 4),
    "virtual_pipeline_size": (1, 2),
    "num_slices": (None, 4, 16),
}


def _configs(**fixed):
    """Every valid ParallelConfig over ``_FIELD_VALUES`` with ``fixed`` pinned."""
    names = list(_FIELD_VALUES)
    for values in itertools.product(*(
        (fixed[name],) if name in fixed else _FIELD_VALUES[name] for name in names
    )):
        try:
            yield ParallelConfig(**dict(zip(names, values)))
        except ValueError:
            continue


def test_every_memoized_term_is_probed():
    assert set(_MEMOIZED_TERMS) == set(_TERM_ARGS)
    assert set(_FIELD_VALUES) == set(_PARALLEL_FIELDS)
    for term in _MEMOIZED_TERMS.values():
        assert set(term.parallel_fields) <= set(_PARALLEL_FIELDS)


@pytest.mark.parametrize("model", [LLAMA_13B, MIXTRAL_8X7B], ids=lambda m: m.name)
@pytest.mark.parametrize("name", sorted(_TERM_ARGS))
def test_memoized_term_ignores_fields_outside_its_key(name, model):
    """Configurations agreeing on a term's key fields get the same fresh value."""
    term = _MEMOIZED_TERMS[name]
    unmemoized = term.__wrapped__
    cluster = hopper_cluster(64)
    shared = AnalyticEstimator(model, cluster)
    for recompute in RecomputeMode:
        args, kwargs = _TERM_ARGS[name](64 * 1024, recompute)
        for key_values in itertools.product(*(_FIELD_VALUES[f] for f in term.parallel_fields)):
            fixed = dict(zip(term.parallel_fields, key_values))
            configs = list(_configs(**fixed))
            if not configs:
                continue
            expected = unmemoized(AnalyticEstimator(model, cluster), configs[0], *args, **kwargs)
            for parallel in configs[1:]:
                fresh = AnalyticEstimator(model, cluster)
                assert unmemoized(fresh, parallel, *args, **kwargs) == expected, parallel
                # One estimator serves every configuration from one memo entry.
                assert getattr(shared, name)(parallel, *args, **kwargs) == expected


# ----------------------------------------------------------------------------
# (c) grid search
# ----------------------------------------------------------------------------


def _fresh_search(system, model, cluster, workload):
    """First highest-MFU estimate over fresh per-candidate evaluations."""
    estimates = [
        system.evaluate(model, cluster, workload, parallel)
        for parallel in system.candidate_configs(model, cluster, workload)
    ]
    feasible = [e for e in estimates if e.feasible]
    if feasible:
        return max(feasible, key=lambda e: e.mfu)
    if any(e.reason == INFEASIBLE_OOM for e in estimates):
        return system.infeasible(INFEASIBLE_OOM)
    return system.infeasible(INFEASIBLE_NO_CONFIG)


_SYSTEMS = {
    "slimpipe": SlimPipeSystem,
    "slimpipe-offload": lambda: SlimPipeSystem(allow_offload=True),
    "slimpipe-no-exchange": lambda: SlimPipeSystem(context_exchange=False),
    "megatron-lm": MegatronSystem,
    "deepspeed": DeepSpeedSystem,
    "scheme-slimpipe-full": lambda: SchemeSystem("slimpipe", forced_recompute=RecomputeMode.FULL),
    **{f"scheme-{scheme}": functools.partial(SchemeSystem, scheme) for scheme in SCHEME_FORMULAS},
}

#: (GPUs, context in K) of every search; offload additionally at 2048K.
_SEARCHES = ((64, 64), (64, 512), (128, 512))
_OFFLOAD_SEARCHES = _SEARCHES + ((128, 2048),)


def _workload(context_k):
    sequence = tokens_from_k(context_k)
    return WorkloadConfig(
        sequence_length=sequence, tokens_per_iteration=max(4 * 1024 * 1024, sequence)
    )


@pytest.mark.parametrize("system_name", sorted(_SYSTEMS))
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_best_configuration_matches_fresh_per_candidate_search(system_name, model_name):
    system = _SYSTEMS[system_name]()
    model = MODEL_REGISTRY[model_name]
    searches = _OFFLOAD_SEARCHES if system_name == "slimpipe-offload" else _SEARCHES
    for gpus, context_k in searches:
        cluster, workload = hopper_cluster(gpus), _workload(context_k)
        searched = system.best_configuration(model, cluster, workload)
        fresh = _fresh_search(system, model, cluster, workload)
        assert searched == fresh
        # ``details`` compared in insertion order too: digests hash the repr.
        assert repr(searched) == repr(fresh)
        assert system._search_estimator is None


class _StubSystem(TrainingSystem):
    """Candidates ``0..n-1`` with scripted bounds and MFUs (``None`` = OOM)."""

    name = "stub"

    def __init__(self, bounds, mfus):
        self.bounds, self.mfus = bounds, mfus
        self.configs = [ParallelConfig(data_parallel_size=i + 1) for i in range(len(mfus))]
        self.evaluated = []

    def candidate_configs(self, model, cluster, workload):
        return self.configs

    def mfu_bound(self, model, cluster, workload, parallel):
        return self.bounds[self.configs.index(parallel)]

    def evaluate(self, model, cluster, workload, parallel):
        index = self.configs.index(parallel)
        self.evaluated.append(index)
        if self.mfus[index] is None:
            return self.infeasible(INFEASIBLE_OOM)
        return SystemEstimate(self.name, True, parallel=parallel, mfu=self.mfus[index])


def _stub_search(bounds, mfus):
    """(winning index or infeasibility reason, indices evaluated in order)."""
    system = _StubSystem(bounds, mfus)
    best = system.best_configuration(LLAMA_13B, hopper_cluster(8), _workload(64))
    outcome = system.configs.index(best.parallel) if best.feasible else best.reason
    return outcome, system.evaluated


def test_equal_mfu_tie_goes_to_the_lower_index_whatever_the_bound_order():
    # Candidate 2 has the highest bound, so it is evaluated first and becomes
    # the incumbent; candidate 0 ties it later and must take over.  Candidate
    # 1's bound equals the incumbent MFU, so it is still evaluated; candidate
    # 3's bound is below it, so the search stops there.
    assert _stub_search(bounds=[0.5, 0.4, 0.9, 0.3], mfus=[0.4, 0.4, 0.4, 0.1]) == (0, [2, 0, 1])


def test_none_bound_counts_as_oom_and_prunes_nothing_before_an_incumbent():
    assert _stub_search([None, None], [None, None]) == (INFEASIBLE_OOM, [])
    assert _stub_search([None, 0.5, 0.2], [None, None, 0.1]) == (2, [1, 2])
    assert _stub_search([0.5], [None]) == (INFEASIBLE_OOM, [0])
    assert _stub_search([], []) == (INFEASIBLE_NO_CONFIG, [])


def test_default_bound_never_prunes():
    system = DeepSpeedSystem()
    model, cluster, workload = LLAMA_13B, hopper_cluster(64), _workload(64)
    candidates = list(system.candidate_configs(model, cluster, workload))
    assert candidates
    assert all(
        system.mfu_bound(model, cluster, workload, parallel) == math.inf
        for parallel in candidates
    )


def test_slimpipe_search_evaluates_at_most_a_tenth_of_its_candidates():
    """A bound that silently became ``+inf`` would pass every other test."""
    system = SlimPipeSystem()
    model, cluster, workload = LLAMA_70B, hopper_cluster(128), _workload(64)
    evaluate = system.evaluate
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return evaluate(*args)

    system.evaluate = counting
    best = system.best_configuration(model, cluster, workload)
    candidates = list(system.candidate_configs(model, cluster, workload))
    assert best.feasible and best.parallel in calls
    assert len(calls) <= len(candidates) // 10, (len(calls), len(candidates))


def test_search_estimator_is_shared_within_and_dropped_after_a_search():
    system = SlimPipeSystem()
    model, cluster = LLAMA_13B, hopper_cluster(32)
    workload = WorkloadConfig(sequence_length=32 * 1024, tokens_per_iteration=1 << 20)
    evaluate = system.evaluate
    seen = []

    def spy(model, cluster, workload, parallel):
        seen.append(system.estimator(model, cluster))
        return evaluate(model, cluster, workload, parallel)

    system.evaluate = spy
    system.best_configuration(model, cluster, workload)
    assert len(seen) > 1 and all(estimator is seen[0] for estimator in seen)
    assert system._search_estimator is None
    # Outside a search every call gets a fresh estimator.
    assert system.estimator(model, cluster) is not system.estimator(model, cluster)

    def fail(*args):
        raise RuntimeError("candidate failed")

    system.evaluate = fail
    with pytest.raises(RuntimeError):
        system.best_configuration(model, cluster, workload)
    assert system._search_estimator is None
