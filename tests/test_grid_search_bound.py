"""The grid search's MFU bound is sound on every candidate of generated searches.

``best_configuration`` evaluates candidates in descending ``mfu_bound``
order and stops once no bound can beat the incumbent, so its argmax equals
the exhaustive one only if, for every candidate,

* a ``None`` bound means ``evaluate`` reports it infeasible, and
* a feasible ``evaluate(...).mfu`` never exceeds the bound — exactly, with no
  tolerance: the bound is the same timing formula at the cheapest recompute
  rung and without offload overhead.

The example budget is small in the tier-1 suite; set
``REPRO_BOUND_EXAMPLES`` (e.g. 200) for a deeper run.
"""

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import tokens_from_k
from repro.hardware.topology import hopper_cluster
from repro.model.config import MODEL_REGISTRY
from repro.model.memory import RecomputeMode
from repro.parallel.config import WorkloadConfig
from repro.schedules.formulas import SCHEME_FORMULAS
from repro.systems import MegatronSystem, SchemeSystem, SlimPipeSystem

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
