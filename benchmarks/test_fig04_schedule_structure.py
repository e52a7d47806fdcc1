"""Figure 4 — default 1F1B vs the SlimPipe slice-level schedule.

Paper claim (annotated on the figure): the activation accumulated on the first
device drops from M_a to (1 + 2(p-1)/n) * M_a / p while the warm-up bubble
shrinks by about n times.
"""

import pytest

from repro.analysis.figures import figure4_schedule_structure
from repro.core.schedule import build_slimpipe_schedule
from repro.schedules import build_1f1b_schedule
from repro.sim.engine import SimulationEngine, UniformCostProvider


def test_figure4_schedule_structure(benchmark):
    result = benchmark(figure4_schedule_structure)
    print()
    print(result.to_text())

    summary = result.summary
    p, m, n = summary["num_devices"], summary["num_microbatches"], summary["num_slices"]
    assert summary["accumulated_fraction"] == pytest.approx((1 + 2 * (p - 1) / n) / p)
    # Compared to the classic 1F1B schedule on the same problem, the warm-up
    # bubble shrinks by roughly n (per-unit durations scaled accordingly).
    classic = build_1f1b_schedule(p, m)
    classic_tl = SimulationEngine(classic, UniformCostProvider(1.0, 2.0)).run()
    slim = build_slimpipe_schedule(p, m, n)
    slim_tl = SimulationEngine(slim, UniformCostProvider(1.0 / n, 2.0 / n)).run()
    assert slim_tl.bubble_fraction() < classic_tl.bubble_fraction() / 2
