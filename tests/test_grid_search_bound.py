"""The grid search's MFU bound is sound on every candidate of generated searches.

``best_configuration`` evaluates candidates in descending ``mfu_bound``
order and stops once no bound can beat the incumbent, so its argmax equals
the exhaustive one only if, for every candidate,

* a ``None`` bound means ``evaluate`` reports it infeasible, and
* a feasible ``evaluate(...).mfu`` never exceeds the bound — exactly, with no
  tolerance: the bound is the same timing formula at the cheapest recompute
  rung and without offload overhead.

The search queues candidates under the cheaper ``ranking_bound`` first, so
that bound must be ``None`` exactly when ``mfu_bound`` is, never below it,
and its refinement step must return ``mfu_bound`` itself.  A last test pins
how many exact bounds the benchmark's planning points compute.

The example budget is small in the tier-1 suite; set
``REPRO_BOUND_EXAMPLES`` (e.g. 200) for a deeper run.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import tokens_from_k
from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_70B, MIXTRAL_8X7B, MODEL_REGISTRY
from repro.model.memory import RecomputeMode
from repro.parallel.config import WorkloadConfig
from repro.schedules.formulas import SCHEME_FORMULAS
from repro.systems import MegatronSystem, SchemeSystem, SlimPipeSystem
from repro.systems.pipeline_systems import _PipelineSystem

_EXAMPLES = int(os.environ.get("REPRO_BOUND_EXAMPLES", "10"))

_VARIANTS = {
    "slimpipe": SlimPipeSystem,
    "slimpipe-offload": lambda: SlimPipeSystem(allow_offload=True),
    "slimpipe-no-exchange": lambda: SlimPipeSystem(context_exchange=False),
    "megatron-lm": MegatronSystem,
    **{f"scheme-{scheme}": lambda scheme=scheme: SchemeSystem(scheme) for scheme in SCHEME_FORMULAS},
    **{
        f"scheme-{scheme}-full": lambda scheme=scheme: SchemeSystem(
            scheme, forced_recompute=RecomputeMode.FULL
        )
        for scheme in SCHEME_FORMULAS
    },
}


@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    model_name=st.sampled_from(sorted(MODEL_REGISTRY)),
    gpus=st.integers(2, 16).map(lambda nodes: 8 * nodes),
    context_k=st.sampled_from([32, 64, 128, 256, 512, 1024, 2048, 4096]),
    variant=st.sampled_from(sorted(_VARIANTS)),
)
def test_bound_is_sound_on_every_candidate(model_name, gpus, context_k, variant):
    system = _VARIANTS[variant]()
    model, cluster = MODEL_REGISTRY[model_name], hopper_cluster(gpus)
    sequence = tokens_from_k(context_k)
    workload = WorkloadConfig(
        sequence_length=sequence, tokens_per_iteration=max(4 * 1024 * 1024, sequence)
    )
    for parallel in system.candidate_configs(model, cluster, workload):
        bound = system.mfu_bound(model, cluster, workload, parallel)
        estimate = system.evaluate(model, cluster, workload, parallel)
        if bound is None:
            assert not estimate.feasible, parallel
        elif estimate.feasible:
            assert estimate.mfu <= bound, (parallel, estimate.mfu, bound)
        ranked = system.ranking_bound(model, cluster, workload, parallel)
        assert (ranked is None) == (bound is None), parallel
        if ranked is not None:
            cheap, refine = ranked
            assert cheap >= bound, (parallel, cheap, bound)
            assert refine() == bound, parallel


def test_train_plan_searches_compute_few_exact_bounds(monkeypatch):
    """The cheap bound spares most exact ones on the benchmark's planning points.

    Llama-70B and Mixtral-8x7B at 64K-512K on 128 GPUs, SlimPipe and
    Megatron-LM: 19,513 exact bounds without the cheap ranking, 7,011 with it.
    """
    exact = _PipelineSystem._exact_bound
    calls = []

    def counting(self, *args):
        calls.append(args)
        return exact(self, *args)

    monkeypatch.setattr(_PipelineSystem, "_exact_bound", counting)
    cluster = hopper_cluster(128)
    for model in (LLAMA_70B, MIXTRAL_8X7B):
        for context_k in (64, 128, 256, 512):
            sequence = tokens_from_k(context_k)
            workload = WorkloadConfig(
                sequence_length=sequence, tokens_per_iteration=max(4 * 1024 * 1024, sequence)
            )
            for system in (SlimPipeSystem(), MegatronSystem()):
                system.best_configuration(model, cluster, workload)
    assert 0 < len(calls) <= 7_100
