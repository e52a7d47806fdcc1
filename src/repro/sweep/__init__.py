"""Parallel sweep engine and golden-metrics regression harness.

This package is the experiment-scaling layer of the reproduction: it turns
the serial "nested ``for`` loops over configurations" pattern used by the
grid searches, the Figure 12 end-to-end comparison and the serving
comparisons into one declarative, cacheable, parallelisable machine.

Sweep specs
-----------
A sweep is declared, not coded: a :class:`~repro.sweep.spec.SweepSpec` names
its *axes* (each a list of JSON scalars — model names, GPU counts, context
lengths, scheme or scenario names), a *base* of fixed parameters merged into
every point, and the registered *evaluator* that maps one expanded point to
a flat dict of metrics::

    spec = SweepSpec.make(
        name="fig12",
        evaluator="fig12-cell",
        axes={"model": ("llama-70b",), "num_gpus": (128,),
              "sequence_k": (64, 256), "system": ("megatron-lm", "slimpipe")},
        base={"tokens_per_iteration": 4 * 1024 * 1024},
    )
    result = run_sweep(spec, workers=4, cache=SweepCache())

Ready-made specs live in :data:`~repro.sweep.registry.SWEEP_REGISTRY`
(``fig12``, ``scheme-context``, ``serving``) and are runnable from the CLI:
``python -m repro.cli sweep run --name fig12 --workers 4``.

Execution
---------
:func:`~repro.sweep.engine.run_sweep` expands the spec, *prunes* points whose
model states provably exceed the cluster's aggregate memory (the memory-model
early-out), resolves the rest against the on-disk cache, and evaluates the
misses — in-process for ``workers <= 1``, otherwise over a
``ProcessPoolExecutor`` with chunked dispatch.

Caching
-------
Results are memoized per spec name as JSON under
``$REPRO_SWEEP_CACHE_DIR`` (default ``~/.cache/repro-sweep``), keyed by a
stable hash of (evaluator, point) and stamped with the
:func:`~repro.sweep.cache.code_fingerprint` over every modelled constant
(GPU spec, estimator settings, model registry, serving scenarios) and the
source of the numeric-core modules (scheme formulas, cost models, the
serving and fleet layers).  Changing any of those changes the fingerprint
and invalidates the file wholesale; ``--no-cache`` (or ``cache=None``)
bypasses memoization entirely.

Goldens
-------
:mod:`repro.sweep.golden` pins the headline numbers of every figure/table
(one golden per entry of the experiment registry,
``repro.analysis.EXPERIMENTS``) and the serving scenarios' SLO metrics as
JSON files under ``tests/goldens``;
``pytest tests -k golden`` recomputes and diffs them within tolerance, and
``python -m repro.cli sweep golden --regenerate`` rewrites them after an
intentional change.
"""

from .cache import SweepCache, code_fingerprint, constants_fingerprint, default_cache_dir
from .engine import SweepResult, SweepStats, argmax_stream, run_sweep
from .golden import (
    GOLDEN_REGISTRY,
    GoldenCheck,
    GoldenDefinition,
    available_goldens,
    check_golden,
    get_golden_definition,
    goldens_dir,
    record_all_goldens,
    record_golden,
)
from .registry import SWEEP_REGISTRY, available_sweeps, get_sweep_spec
from .spec import SweepAxis, SweepSpec, point_key, stable_hash

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepCache",
    "SweepResult",
    "SweepStats",
    "SWEEP_REGISTRY",
    "GOLDEN_REGISTRY",
    "GoldenCheck",
    "GoldenDefinition",
    "argmax_stream",
    "available_goldens",
    "available_sweeps",
    "check_golden",
    "code_fingerprint",
    "constants_fingerprint",
    "get_golden_definition",
    "default_cache_dir",
    "get_sweep_spec",
    "goldens_dir",
    "point_key",
    "record_all_goldens",
    "record_golden",
    "run_sweep",
    "stable_hash",
]
