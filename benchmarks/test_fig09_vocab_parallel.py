"""Figure 9 — the output-layer GEMM bubble and vocabulary parallelism.

Assigning the vocabulary projection to the last pipeline device alone creates
a bubble in the middle of the pipeline; distributing it (and the fp32 loss
logits) across all devices removes the bubble.  This doubles as the
vocabulary-parallelism ablation bench (``experiments fig9`` renders the same
table from the experiment registry, ``repro.analysis.EXPERIMENTS``).
"""

from repro.analysis.figures import figure9_vocab_parallel_bubble
from repro.core.planner import SlimPipeOptions, SlimPipePlanner
from repro.hardware.topology import hopper_cluster
from repro.model.config import LLAMA_13B
from repro.parallel.config import ParallelConfig, WorkloadConfig


def test_figure9_vocab_parallel_bubble(once):
    result = once(
        figure9_vocab_parallel_bubble,
        sequence_length=128 * 1024,
        pipeline_parallel_size=4,
        num_slices=8,
    )
    print()
    print(result.to_text())

    assert result.summary["speedup"] > 1.0
    assert (
        result.row(layer="vocab_parallel")["bubble_fraction"]
        <= result.row(layer="last_device_gemm")["bubble_fraction"]
    )


def test_vocab_parallel_memory_ablation(once):
    """Vocabulary parallelism also divides the last device's loss-logit memory."""

    def run(vocab_parallel):
        parallel = ParallelConfig(
            tensor_parallel_size=8, pipeline_parallel_size=4, num_slices=8
        )
        workload = WorkloadConfig(
            sequence_length=128 * 1024, tokens_per_iteration=2 * 128 * 1024
        )
        planner = SlimPipePlanner(
            LLAMA_13B,
            hopper_cluster(32),
            parallel,
            workload,
            SlimPipeOptions(vocab_parallel=vocab_parallel),
        )
        return planner.run()

    shared = once(run, True)
    classic = run(False)
    last_shared = shared.memory_profiles[-1].peak_activation_bytes
    last_classic = classic.memory_profiles[-1].peak_activation_bytes
    print()
    print(
        f"last-device activations: vocab-parallel {last_shared / 2**30:.2f} GiB "
        f"vs classic {last_classic / 2**30:.2f} GiB"
    )
    assert last_shared < last_classic
