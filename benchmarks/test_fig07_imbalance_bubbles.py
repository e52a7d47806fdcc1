"""Figure 7 — imbalance bubbles caused by causal attention (and their removal).

Without context exchange, devices working on earlier slices idle while devices
holding later slices grind through larger KV caches; the simulated timeline
shows the extra bubbles, and enabling the exchange removes them.  This doubles
as the context-exchange ablation bench (``experiments fig7`` renders the same
table from the experiment registry, ``repro.analysis.EXPERIMENTS``).
"""

from repro.analysis.figures import figure7_imbalance_bubbles


def test_figure7_imbalance_bubbles(once):
    result = once(
        figure7_imbalance_bubbles,
        sequence_length=256 * 1024,
        pipeline_parallel_size=4,
        num_slices=16,
        num_microbatches=2,
    )
    print()
    print(result.to_text())

    without, with_ = result.row(exchange="without"), result.row(exchange="with")
    assert without["bubble_fraction"] > with_["bubble_fraction"]
    assert without["iteration_time"] > with_["iteration_time"]
    # The removed idle time is a meaningful share of the iteration.
    assert without["bubble_fraction"] - with_["bubble_fraction"] > 0.05
