"""Table 2 — closed-form comparison of pipeline schemes, cross-checked against
the schedule builders and the discrete-event simulator (and Eq. 1 / Eq. 2)."""

import pytest

from repro.analysis.tables import table2_scheme_comparison
from repro.core.context_exchange import (
    exchange_volume_bound,
    exchange_volume_per_microbatch,
)
from repro.core.schedule import build_slimpipe_schedule
from repro.model.config import LLAMA_13B
from repro.schedules import build_1f1b_schedule
from repro.schedules.formulas import activation_memory_factor
from repro.sim.engine import SimulationEngine, UniformCostProvider


def test_table2_scheme_comparison(benchmark):
    table = benchmark(table2_scheme_comparison, num_microbatches=8)
    print()
    print(table.to_text())

    by_name = {r["scheme"]: r for r in table.rows}
    slim = by_name["slimpipe"]
    # SlimPipe wins both columns of Table 2.
    for name, row in by_name.items():
        if name != "slimpipe":
            assert slim["activation_memory_factor"] <= row["activation_memory_factor"] + 1e-12
    assert slim["bubble_fraction"] < by_name["interleaved-1f1b"]["bubble_fraction"]
    assert by_name["gpipe"]["activation_memory_factor"] == pytest.approx(8 / 8)


def test_eq1_formula_matches_schedule(benchmark):
    """Eq. 1 cross-check: the built schedule accumulates exactly (1+δ) M_a / p."""

    def check():
        results = []
        for p, n, v in ((4, 8, 1), (4, 16, 2), (8, 16, 1)):
            schedule = build_slimpipe_schedule(p, 4, n, v)
            measured = max(schedule.max_inflight_activations()) / (n * v * p)
            predicted = activation_memory_factor("slimpipe", p, 4, n, v)
            results.append((p, n, v, measured, predicted))
        return results

    for p, n, v, measured, predicted in benchmark(check):
        assert measured == pytest.approx(predicted)


def test_eq2_volume_below_bound(benchmark):
    def check():
        vol = exchange_volume_per_microbatch(LLAMA_13B, 256 * 1024, 32, 8, 8)
        bound = exchange_volume_bound(LLAMA_13B, 256 * 1024, 32, 8, 8)
        return vol, bound

    vol, bound = benchmark(check)
    print(f"\nEq. 2: exchanged {vol / 2**30:.2f} GiB <= bound {bound / 2**30:.2f} GiB")
    assert vol <= bound


def test_bubble_formula_vs_simulator(benchmark):
    """The 1F1B closed form and the simulator agree (sanity anchor of Table 2)."""

    def simulate():
        schedule = build_1f1b_schedule(8, 16)
        return SimulationEngine(schedule, UniformCostProvider(1.0, 1.0)).run().bubble_fraction()

    simulated = benchmark(simulate)
    ratio = (8 - 1) / 16
    assert simulated == pytest.approx(ratio / (1 + ratio), abs=0.02)
