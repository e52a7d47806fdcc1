"""Accuracy contract of the P² streaming quantile sketch.

:mod:`repro.obs.sketch` documents three guarantees and this suite pins all
of them:

* **exact up to five samples** — bit-identical to
  :class:`repro.serving.metrics.PercentileSummary` (same interpolation
  arithmetic on the same sorted buffer);
* **bounded beyond** — the estimate always lies inside the observed
  min/max, and for arbitrary (hypothesis-generated, adversarially ordered)
  streams it stays within the documented combined bound: between the exact
  quantiles at ``q ± (0.15 + 3/n)``, widened by ``(0.35 + 1/n)`` of the
  sample range (the rank window absorbs wide gaps between order
  statistics, the range slack absorbs P²'s lag on sorted/bimodal
  orderings);
* **tight on well-behaved data** — under 1% of the range on large uniform
  samples;

plus determinism (same stream, same estimate) and the empty-sketch errors.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import P2Quantile, QuantileSketch, interpolate
from repro.serving.metrics import PercentileSummary

_SAMPLES = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


@settings(max_examples=60, deadline=None)
@given(values=_SAMPLES, q=st.sampled_from([0.5, 0.9, 0.95, 0.99]))
def test_p2_error_bounded_for_arbitrary_streams(values, q):
    sketch = P2Quantile(q)
    for value in values:
        sketch.add(value)
    estimate = sketch.value()
    assert min(values) <= estimate <= max(values)
    # The documented adversarial bound (see repro.obs.sketch): the estimate
    # lies between the exact quantiles at q ± (0.15 + 3/n), further widened
    # by (0.35 + 1/n) of the sample range.
    n = len(values)
    span = max(values) - min(values)
    rank_tol = 0.15 + 3.0 / n
    slack = span * (0.35 + 1.0 / n) + 1e-9
    exact = PercentileSummary(values)
    lo = exact.at(max(0.0, q - rank_tol) * 100.0) - slack
    hi = exact.at(min(1.0, q + rank_tol) * 100.0) + slack
    assert lo <= estimate <= hi


def test_p2_estimate_stays_within_sample_range_at_rounding_edge():
    # The interpolation weights once rounded this estimate one ulp above max.
    values = [0.0, 999999.9999999999, 999999.9999999999]
    sketch = P2Quantile(0.9)
    for value in values:
        sketch.add(value)
    assert sketch.value() == max(values)
    assert interpolate(sorted(values), 0.9) == max(values)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=5))
def test_exact_up_to_five_samples(values):
    sketch = P2Quantile(0.95)
    for value in values:
        sketch.add(value)
    assert sketch.value() == PercentileSummary(values).at(95.0)
    assert sketch.count == len(values)


@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_tight_on_large_uniform_sample(q):
    rng = random.Random(7)
    sketch = P2Quantile(q)
    values = [rng.uniform(0.0, 100.0) for _ in range(20000)]
    for value in values:
        sketch.add(value)
    exact = PercentileSummary(values).at(q * 100.0)
    assert abs(sketch.value() - exact) <= 1.0  # 1% of the 100-wide range


def test_tight_on_normal_sample():
    rng = random.Random(11)
    sketch = P2Quantile(0.95)
    values = [rng.gauss(50.0, 10.0) for _ in range(20000)]
    for value in values:
        sketch.add(value)
    exact = PercentileSummary(values).at(95.0)
    assert abs(sketch.value() - exact) <= 0.01 * (max(values) - min(values))


def test_deterministic_for_identical_streams():
    values = [math.sin(i * 0.7) * 40.0 + i % 13 for i in range(5000)]

    def run():
        sketch = P2Quantile(0.99)
        for value in values:
            sketch.add(value)
        return sketch.value()

    assert run() == run()


def test_empty_sketch_raises_with_quantile_name():
    with pytest.raises(ValueError, match="p95"):
        P2Quantile(0.95).value()


def test_q_must_be_a_fraction():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)
    with pytest.raises(ValueError):
        P2Quantile(95.0)


def test_quantile_sketch_bundle():
    rng = random.Random(3)
    bundle = QuantileSketch("ttft")
    values = [rng.expovariate(1.0) for _ in range(2000)]
    for value in values:
        bundle.add(value)
    summary = bundle.summary()
    assert summary["count"] == 2000
    assert summary["min"] == min(values)
    assert summary["max"] == max(values)
    assert summary["mean"] == pytest.approx(sum(values) / len(values))
    assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
    with pytest.raises(KeyError, match="p75"):
        bundle.quantile(0.75)


def test_quantile_sketch_empty_summary():
    assert QuantileSketch("tpot").summary() == {"count": 0}
