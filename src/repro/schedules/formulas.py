"""Closed-form memory and bubble models of every pipeline scheme (Table 2).

These are the analytic counterparts of the schedule builders: for each scheme
the paper compares, the peak *activation memory factor* (in units of one
microbatch's full-model activation ``M_a``) and the *bubble fraction* (idle
device-time over total device-time) as functions of the pipeline size ``p``,
microbatch count ``m``, slices per sequence ``n`` and virtual stages per
device ``v``.

Two schemes need an extra ingredient: the zero-bubble family's residual
bubbles and SlimPipe's asymptotic bubble term depend on how large a share of
the compute the *attention core* is (because ``T_w = 0`` and ``T_b ≈ 2 T_f``
for attention, Section 2.2), so the corresponding functions accept an
``attention_share`` in ``[0, 1]`` — 0 reproduces the table's short-context
columns, 1 the long-context limit.

The schedule builders and the discrete-event simulator reproduce these values
structurally; ``tests/test_formulas.py`` cross-checks the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = [
    "SchemeCharacteristics",
    "SCHEME_FORMULAS",
    "activation_memory_factor",
    "bubble_fraction_estimate",
    "slimpipe_accumulated_activation_factor",
    "available_schemes",
    "PAPER_SCHEMES",
]


def _require_positive(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Activation memory factors (units of one microbatch's full-model activation)
# ---------------------------------------------------------------------------
def _gpipe_memory(p: int, m: int, n: int, v: int) -> float:
    return m / p


def _terapipe_memory(p: int, m: int, n: int, v: int) -> float:
    return m / p


def _1f1b_memory(p: int, m: int, n: int, v: int) -> float:
    return min(m, p) / p  # "1" in Table 2 once m >= p


def _interleaved_memory(p: int, m: int, n: int, v: int) -> float:
    return min(m, p) / p * (1.0 + (p - 1) / (v * p))


def _zbv_memory(p: int, m: int, n: int, v: int) -> float:
    return min(m, p) / p  # "same peak as 1F1B"


def _vhalf_memory(p: int, m: int, n: int, v: int) -> float:
    # Half of 1F1B's p in-flight microbatches plus one: (p/2 + 1) stage units,
    # i.e. the "1/2 + 1/p" of Table 2 (bounded by m for tiny batches).
    return min(m, p / 2.0 + 1.0) / p


def _slimpipe_memory(p: int, m: int, n: int, v: int) -> float:
    return 1.0 / p + 2.0 * (p - 1) / (n * v * p)


# ---------------------------------------------------------------------------
# Bubble fractions (idle time / total device time)
# ---------------------------------------------------------------------------
def _ratio_to_fraction(overhead_ratio: float) -> float:
    """Convert a "bubble time / useful time" ratio into an idle fraction."""
    return overhead_ratio / (1.0 + overhead_ratio)


def _gpipe_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    return _ratio_to_fraction((p - 1) / m)


def _terapipe_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    return _ratio_to_fraction((p - 1) / (n * m))


def _1f1b_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    return _ratio_to_fraction((p - 1) / m)


def _interleaved_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    return _ratio_to_fraction((p - 1) / (v * m))


def _zbv_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    # Zero bubble when T_f = T_b = T_w; the attention core (T_w = 0, T_b = 2 T_f)
    # reintroduces imbalance bubbles that grow with its share of the compute.
    return _ratio_to_fraction(attention_share * 2.0 * (p - 1) / (3.0 * m))


def _vhalf_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    return _ratio_to_fraction(p / (2.0 * m) + attention_share / 3.0)


def _slimpipe_bubble(p: int, m: int, n: int, v: int, attention_share: float) -> float:
    linear_term = (p - 1) / (n * v * m)
    attention_term = (p - 1) * p / ((n + 1.0) * n * v * m)
    ratio = (1.0 - attention_share) * linear_term + attention_share * attention_term
    return _ratio_to_fraction(ratio)


@dataclass(frozen=True)
class SchemeCharacteristics:
    """Closed-form descriptors of one pipeline scheme."""

    name: str
    memory_factor: Callable[[int, int, int, int], float]
    bubble_fraction: Callable[[int, int, int, int, float], float]
    uses_slices: bool = False
    uses_virtual_stages: bool = False
    splits_backward: bool = False


SCHEME_FORMULAS: Dict[str, SchemeCharacteristics] = {
    "gpipe": SchemeCharacteristics("gpipe", _gpipe_memory, _gpipe_bubble),
    "terapipe": SchemeCharacteristics(
        "terapipe", _terapipe_memory, _terapipe_bubble, uses_slices=True
    ),
    "1f1b": SchemeCharacteristics("1f1b", _1f1b_memory, _1f1b_bubble),
    "interleaved-1f1b": SchemeCharacteristics(
        "interleaved-1f1b", _interleaved_memory, _interleaved_bubble, uses_virtual_stages=True
    ),
    "zb-v": SchemeCharacteristics("zb-v", _zbv_memory, _zbv_bubble, splits_backward=True),
    "v-half": SchemeCharacteristics(
        "v-half", _vhalf_memory, _vhalf_bubble, splits_backward=True
    ),
    "slimpipe": SchemeCharacteristics(
        "slimpipe", _slimpipe_memory, _slimpipe_bubble, uses_slices=True, uses_virtual_stages=True
    ),
}


#: The pipeline schemes the paper's scheme-comparison experiments evaluate
#: (Figures 2, 3, 13 and 14).
PAPER_SCHEMES = ("zb-v", "v-half", "1f1b", "interleaved-1f1b", "slimpipe")


def available_schemes() -> list[str]:
    """Scheme names understood by the closed-form models."""
    return sorted(SCHEME_FORMULAS)


def activation_memory_factor(
    scheme: str, p: int, m: int, n: Optional[int] = None, v: int = 1
) -> float:
    """Peak activation memory of ``scheme`` in units of one microbatch's ``M_a``.

    ``n`` defaults to ``p`` for sliced schemes and is ignored for the others.
    """
    _require_positive(p=p, m=m, v=v)
    chars = _lookup(scheme)
    slices = n if n is not None else p
    _require_positive(n=slices)
    return chars.memory_factor(p, m, slices, v)


def bubble_fraction_estimate(
    scheme: str,
    p: int,
    m: int,
    n: Optional[int] = None,
    v: int = 1,
    attention_share: float = 0.0,
) -> float:
    """Estimated bubble fraction of ``scheme`` (Table 2, right column).

    ``attention_share`` is the fraction of per-microbatch compute spent in the
    attention core — it drives the imbalance bubbles of the zero-bubble family
    and the asymptotic term of SlimPipe's bound.
    """
    _require_positive(p=p, m=m, v=v)
    if not 0.0 <= attention_share <= 1.0:
        raise ValueError("attention_share must be in [0, 1]")
    chars = _lookup(scheme)
    slices = n if n is not None else p
    _require_positive(n=slices)
    return chars.bubble_fraction(p, m, slices, v, attention_share)


def slimpipe_accumulated_activation_factor(p: int, n: int, v: int = 1) -> float:
    """Eq. 1 as a fraction of ``M_a``: ``(1 + 2(p-1)/(n v)) / p``."""
    _require_positive(p=p, n=n, v=v)
    return (1.0 + 2.0 * (p - 1) / (n * v)) / p


def _lookup(scheme: str) -> SchemeCharacteristics:
    try:
        return SCHEME_FORMULAS[scheme]
    except KeyError:
        raise KeyError(
            f"unknown scheme {scheme!r}; available: {available_schemes()}"
        ) from None
