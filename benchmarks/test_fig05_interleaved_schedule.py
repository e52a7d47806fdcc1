"""Figure 5 — SlimPipe in its interleaving form (2 stages per device).

Paper claim: uniform slicing and stage interleaving compose; the accumulated
activations and warm-up bubbles shrink further, and the pipeline works with
only 2 microbatches where classic interleaved 1F1B needs at least p.
"""

from repro.analysis.figures import (
    figure4_schedule_structure,
    figure5_interleaved_schedule,
)


def test_figure5_interleaved_schedule(benchmark):
    result = benchmark(figure5_interleaved_schedule)
    print()
    print(result.to_text())

    summary = result.summary
    plain = figure4_schedule_structure(
        pipeline_parallel_size=summary["num_devices"],
        num_microbatches=summary["num_microbatches"],
        num_slices=summary["num_slices"],
    )
    assert summary["stages_per_device"] == 2
    assert summary["num_microbatches"] == 2  # fewer microbatches than the PP size
    assert summary["accumulated_fraction"] < plain.summary["accumulated_fraction"]
