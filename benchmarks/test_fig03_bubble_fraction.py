"""Figure 3 — theoretical bubble fractions of the PP schemes.

Paper setting: Llama 13B, PP size 8, 4 microbatches, 256K context.  SlimPipe's
bubble fraction is near zero while every baseline wastes a substantial share
of device time.
"""

from repro.analysis.figures import figure3_bubble_fractions


def test_figure3_bubble_fractions(benchmark):
    result = benchmark(figure3_bubble_fractions)
    print()
    print(result.to_text())

    fraction = {r["scheme"]: r["bubble_fraction"] for r in result.rows}
    slim = fraction["slimpipe"]
    assert slim < 0.05
    assert fraction["1f1b"] > 0.3
    assert fraction["interleaved-1f1b"] < fraction["1f1b"]
    for scheme, value in fraction.items():
        if scheme != "slimpipe":
            assert value > 3 * slim
