"""On-disk memoization of sweep results, invalidated by a code fingerprint.

Every evaluated sweep point is stored in a JSON file per spec name under the
cache directory (``$REPRO_SWEEP_CACHE_DIR``, defaulting to
``~/.cache/repro-sweep``).  Entries are keyed by
:func:`repro.sweep.spec.point_key` — a stable hash of (evaluator, point) — so
re-running a sweep re-evaluates only the points that were never seen.

Staleness is handled by two fingerprints:

* :func:`constants_fingerprint` hashes the modelled constants (GPU spec,
  estimator settings, model registry, serving scenario knobs).  Golden
  records carry it: a golden goes stale when a constant moves, and a source
  edit that moves a number fails on the values themselves.
* :func:`code_fingerprint` adds the source text of the numeric-core modules
  (scheme formulas, cost models, the serving and fleet layers).  Every cache
  file carries it and a file whose fingerprint no longer matches is
  discarded wholesale, so no edit can make the cache serve a stale number.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import lru_cache
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from .spec import Scalar, SweepSpec, stable_hash

__all__ = [
    "SweepCache",
    "code_fingerprint",
    "constants_fingerprint",
    "default_cache_dir",
    "CACHE_DIR_ENV",
]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE_DIR"

_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """Cache directory: ``$REPRO_SWEEP_CACHE_DIR`` or ``~/.cache/repro-sweep``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sweep"


def _jsonable(obj: object) -> object:
    """Render constants (dataclasses, enums, containers) as plain JSON data."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in fields(obj)
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


#: Modules whose *source* is hashed into the fingerprint: the numeric heart
#: of every evaluator.  Editing a closed form, a trace factory or a cost
#: model here must invalidate memoized results even when no registry constant
#: changed.
_FINGERPRINTED_MODULES = (
    "repro.fleet.autoscaler",
    "repro.fleet.cluster",
    "repro.fleet.failures",
    "repro.fleet.router",
    "repro.fleet.scenarios",
    "repro.hardware.comm",
    "repro.model.costs",
    "repro.model.flops",
    "repro.model.memory",
    "repro.schedules.formulas",
    "repro.serving.batcher",
    "repro.serving.engine",
    "repro.serving.metrics",
    "repro.serving.paged_kv",
    "repro.serving.prefix_cache",
    "repro.serving.scenarios",
    "repro.serving.tenancy",
    "repro.serving.workload",
    "repro.sweep.evaluators",
    "repro.systems.estimator",
    "repro.systems.pipeline_systems",
    "repro.systems.deepspeed",
)


def _constants_payload() -> Dict[str, object]:
    """The modelled constants every evaluator depends on, as JSON data."""
    # Imported lazily so this module stays cycle-free below the model,
    # hardware, systems and serving layers.
    from ..hardware import gpu as gpu_module
    from ..model.config import MODEL_REGISTRY
    from ..serving.scenarios import SCENARIO_REGISTRY
    from ..systems.estimator import EstimatorSettings

    scenarios = {
        name: {
            "model": s.model,
            "num_gpus": s.num_gpus,
            "slo": _jsonable(s.slo),
            "batcher": _jsonable(s.batcher),
            "block_tokens": s.block_tokens,
            "prefill_fraction": s.prefill_fraction,
            "tenancy": _jsonable(s.tenancy),
        }
        for name, s in SCENARIO_REGISTRY.items()
    }
    return {
        "gpu": _jsonable(gpu_module.HOPPER_80GB),
        "estimator": _jsonable(EstimatorSettings()),
        "models": {name: _jsonable(cfg) for name, cfg in MODEL_REGISTRY.items()},
        "scenarios": scenarios,
    }


def constants_fingerprint() -> str:
    """Stable hash of the modelled constants alone (what goldens record).

    Covers the GPU spec, the default estimator settings, every registered
    model configuration and every serving scenario's deployment knobs, but
    no source text: a refactor that moves no number leaves it, and so every
    golden, unchanged.  Computed afresh on each call (it is cheap), so a
    perturbed constant shows up without clearing any cache.
    """
    return stable_hash(_constants_payload())


@lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """Stable hash of the constants and code the sweep evaluators depend on.

    The :func:`constants_fingerprint` payload plus the source text of the
    numeric-core modules (closed-form scheme formulas, FLOPs/memory/cost
    models, communication model, workload generators, serving metrics, the
    sweep evaluators and the fleet layer).  Perturbing any of them changes
    the fingerprint, which invalidates sweep caches.  (The package version
    is deliberately excluded: a version bump alone does not change any
    number.)

    Memoized per process (the inputs are module-level constants); tests that
    perturb a constant or a source must ``code_fingerprint.cache_clear()``
    around the perturbation.
    """
    import importlib
    import inspect

    payload = _constants_payload()
    payload["sources"] = {
        name: stable_hash(inspect.getsource(importlib.import_module(name)))
        for name in _FINGERPRINTED_MODULES
    }
    return stable_hash(payload)


class SweepCache:
    """Per-spec JSON result store keyed by point hash.

    ``directory=None`` uses :func:`default_cache_dir`; ``enabled=False``
    makes every operation a no-op (the ``--no-cache`` path).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        enabled: bool = True,
    ):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.enabled = enabled

    # ------------------------------------------------------------------
    def path_for(self, spec: SweepSpec) -> Path:
        return self.directory / f"{spec.name}.json"

    def load(self, spec: SweepSpec) -> Dict[str, Dict[str, Scalar]]:
        """Entries cached for ``spec``; empty when disabled, missing or stale."""
        if not self.enabled:
            return {}
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        if payload.get("format") != _FORMAT_VERSION:
            return {}
        if payload.get("fingerprint") != code_fingerprint():
            # A code-relevant constant changed: every memoized number is stale.
            return {}
        entries = payload.get("entries")
        return entries if isinstance(entries, dict) else {}

    def store(self, spec: SweepSpec, entries: Mapping[str, Dict[str, Scalar]]) -> None:
        """Merge ``entries`` into the spec's cache file (atomic rewrite)."""
        if not self.enabled or not entries:
            return
        merged = self.load(spec)
        merged.update(entries)
        payload = {
            "format": _FORMAT_VERSION,
            "fingerprint": code_fingerprint(),
            "spec": spec.name,
            "evaluator": spec.evaluator,
            "entries": merged,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(spec)
        # Unique temp name per writer: concurrent processes sharing the cache
        # directory must never interleave writes into the same staging file.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{spec.name}.", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
