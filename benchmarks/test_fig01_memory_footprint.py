"""Figure 1 — GPU memory footprint of Classic PP vs SlimPipe across PP sizes.

Paper claim: model-state memory shrinks with the pipeline size for both
approaches, but only SlimPipe's activation memory shrinks with it too; classic
PP's activation footprint stays constant.
"""

from repro.analysis.figures import figure1_memory_footprint


def test_figure1_memory_footprint(benchmark):
    result = benchmark(figure1_memory_footprint)
    print()
    print(result.to_text())

    rows = {r["pipeline_parallel_size"]: r for r in result.rows}
    smallest, largest = rows[min(rows)], rows[max(rows)]
    # Classic PP: constant activations; SlimPipe: ~1/p scaling.
    assert largest["classic_activation_gib"] > 0.9 * smallest["classic_activation_gib"]
    assert largest["slimpipe_activation_gib"] < smallest["slimpipe_activation_gib"] / (
        max(rows) / min(rows) / 2
    )
    # Model states shrink for both (shared pipeline behaviour).
    assert largest["model_state_gib"] < smallest["model_state_gib"]
