"""Figure 2 — maximum context length supported by each PP scheme.

Paper values (Llama-7B-class model, 8-way TP, 8-way PP): ZB-V 72K, V-Half
112K, default 1F1B 124K, interleaved 92K, SlimPipe 600K (4.8-8.3x longer).
The reproduction checks the shape: SlimPipe reaches several times the context
of every baseline.
"""

from repro.analysis.figures import PAPER_SCHEMES, figure2_max_context


def test_figure2_max_context(once):
    result = once(figure2_max_context, max_context_k=768, step_k=8)
    print()
    print(result.to_text())

    slim = result.row(scheme="slimpipe")["max_context_k"]
    baselines = {
        r["scheme"]: r["max_context_k"] for r in result.rows if r["scheme"] != "slimpipe"
    }
    assert set(baselines) == set(PAPER_SCHEMES) - {"slimpipe"}
    assert all(value > 0 for value in baselines.values())
    assert slim >= 3 * max(baselines.values())
    assert slim >= 512  # the paper reports ~600K
