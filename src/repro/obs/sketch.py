"""Streaming quantile estimation: the P² (piecewise-parabolic) sketch.

ROADMAP item 1 wants million-request traces without retaining full sample
lists; the classic P² algorithm (Jain & Chlamtac, CACM 1985) estimates one
quantile in O(1) memory by maintaining five *markers* — the minimum, the
maximum, the target quantile and the two intermediate quantiles halfway to
each extreme — and nudging the middle three toward their desired rank
positions with a piecewise-parabolic (hence P²) height adjustment on every
observation.

Accuracy contract (pinned by ``tests/test_obs_sketch.py``):

* with five or fewer observations the estimate is **exact** (the sketch
  simply interpolates its sorted buffer with the same linear-interpolation
  convention as :func:`repro.serving.metrics.percentile`);
* beyond that the estimate is approximate; for well-behaved distributions
  (uniform, normal) on thousands of samples the error is well under 1% of
  the sample range, and the estimate is always bounded by the observed
  min/max.  Adversarial orderings (sorted streams, heavy duplication) can
  do much worse — the documented worst-case bound the tests pin is a
  combined rank/value window: the estimate of quantile ``q`` over ``n``
  samples lies between the exact quantiles at ``q ± (0.15 + 3/n)``,
  further widened by ``(0.35 + 1/n)`` of the observed sample range.

The sketch is deterministic (no sampling), so identical input streams give
identical estimates regardless of timing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["P2Quantile", "QuantileSketch", "interpolate"]


def interpolate(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a sorted, non-empty sample (``q`` in [0, 1]).

    The one interpolation every exact percentile read uses (serving metrics,
    diagnosis thresholds, the sketch's small-sample regime), so exact and
    sketched small-sample reads agree to the last ulp.
    """
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    low, high = ordered[lo], ordered[hi]
    # The weighted sum can round one ulp outside its bracket; clamp it back.
    return min(max(low * (1.0 - frac) + high * frac, low), high)


class P2Quantile:
    """One streaming quantile estimate in constant memory (five markers)."""

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self.count = 0
        # Until five observations arrive, ``_heights`` is the sorted sample
        # buffer; afterwards it holds the five marker heights.
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: Tuple[float, ...] = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def add(self, value: float) -> None:
        """Observe one sample."""
        value = float(value)
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(value)
            heights.sort()
            if self.count == 5:
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                q = self.q
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
            return
        positions = self._positions
        # Locate the cell the new sample falls into, stretching the extremes.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        desired = self._desired
        increments = self._increments
        for index in range(5):
            desired[index] += increments[index]
        # Nudge the three interior markers toward their desired positions.
        for index in range(1, 4):
            delta = desired[index] - positions[index]
            below = positions[index] - positions[index - 1]
            above = positions[index + 1] - positions[index]
            if (delta >= 1.0 and above > 1.0) or (delta <= -1.0 and below > 1.0):
                step = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(index, step)
                if heights[index - 1] < candidate < heights[index + 1]:
                    heights[index] = candidate
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step
        return

    def _parabolic(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        span = positions[index + 1] - positions[index - 1]
        return heights[index] + (step / span) * (
            (positions[index] - positions[index - 1] + step)
            * (heights[index + 1] - heights[index])
            / (positions[index + 1] - positions[index])
            + (positions[index + 1] - positions[index] - step)
            * (heights[index] - heights[index - 1])
            / (positions[index] - positions[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        heights = self._heights
        positions = self._positions
        other = index + int(step)
        return heights[index] + step * (heights[other] - heights[index]) / (
            positions[other] - positions[index]
        )

    def value(self) -> float:
        """Current estimate of the ``q`` quantile; exact for <= 5 samples."""
        if self.count == 0:
            raise ValueError(f"p{self.q * 100:g} sketch has no samples")
        if self.count <= 5:
            return interpolate(self._heights, self.q)
        return self._heights[2]


class QuantileSketch:
    """A bundle of P² quantiles plus exact count/sum/min/max for one metric.

    The streaming replacement for "append every sample, sort at the end":
    constant memory, one pass, deterministic.  ``quantiles`` are fractions
    in (0, 1) — the default matches the p50/p95/p99 the aggregate metrics
    report.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "_sketches")

    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, name: str, quantiles: Sequence[float] = DEFAULT_QUANTILES):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._sketches = [P2Quantile(q) for q in quantiles]

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for sketch in self._sketches:
            sketch.add(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        for sketch in self._sketches:
            if sketch.q == q:
                return sketch.value()
        raise KeyError(f"{self.name}: no p{q * 100:g} sketch configured")

    def summary(self) -> Dict[str, float]:
        """JSON-friendly summary: count, mean, min/max, every quantile."""
        if self.count == 0:
            return {"count": 0}
        payload: Dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }
        for sketch in self._sketches:
            payload[f"p{sketch.q * 100:g}"] = sketch.value()
        return payload
