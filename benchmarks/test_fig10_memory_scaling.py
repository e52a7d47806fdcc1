"""Figure 10 — measured per-device memory vs the M_t / p theoretical curve.

Paper claim: with SlimPipe (max interleaving, vocabulary parallelism) the peak
memory of both the first and the last pipeline device follows M_t / p — nearly
all memory used in LLM training is distributed by PP.
"""

import pytest

from repro.analysis.figures import figure10_memory_scaling


def test_figure10_memory_scaling(once):
    result = once(
        figure10_memory_scaling,
        sequence_ks=(32, 64, 96),
        pipeline_sizes=(2, 4, 8),
        num_microbatches=2,
    )
    print()
    print(result.to_text())

    for row in result.rows:
        # Measured peaks track the theoretical curve within 25%.
        assert row["first_device_gib"] == pytest.approx(row["theoretical_gib"], rel=0.25)
        assert row["last_device_gib"] == pytest.approx(row["theoretical_gib"], rel=0.25)
    for seq_k in (32, 64, 96):
        rows = sorted(
            (r for r in result.rows if r["sequence_k"] == seq_k),
            key=lambda r: r["pipeline_parallel_size"],
        )
        assert len(rows) >= 3
        # Near-inverse-proportional scaling with p.
        assert rows[0]["first_device_gib"] / rows[-1]["first_device_gib"] > 2.5
