"""Figure 6 — how the number of slices drives activation memory and bubbles.

Paper claims: (a) activation memory falls from 1 towards 1/p of a microbatch
as n grows, for every PP size; (b) the bubble fraction falls towards zero as n
grows, for every microbatch count.
"""

from repro.analysis.figures import figure6_slices_sweep


def test_figure6_slices_sweep(benchmark):
    result = benchmark(figure6_slices_sweep)
    print()
    print(result.to_text())

    activation, bubble = result.panels
    # (a) monotone decrease towards 1/p for every pipeline size.
    by_p = {}
    for row in activation.rows:
        by_p.setdefault(row["pipeline_parallel_size"], []).append(row)
    for p, series in by_p.items():
        series.sort(key=lambda r: r["num_slices"])
        fractions = [r["activation_fraction"] for r in series]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[-1] < 1.5 / p

    # (b) monotone decrease towards zero for every microbatch count.
    by_m = {}
    for row in bubble.rows:
        by_m.setdefault(row["num_microbatches"], []).append(row)
    for m, series in by_m.items():
        series.sort(key=lambda r: r["num_slices"])
        fractions = [r["bubble_fraction"] for r in series]
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[-1] < 0.1
