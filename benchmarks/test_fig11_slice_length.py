"""Figure 11 — how the number of slices affects training efficiency.

Paper claims: finer slicing first improves MFU (smaller bubbles) and then
hurts it (lost arithmetic intensity); the drop-off comes later for longer
contexts, so 512K tolerates 32 slices while 128K does not.
"""

from repro.analysis.figures import figure11_mfu_vs_slices


def test_figure11_mfu_vs_slices(once):
    result = once(
        figure11_mfu_vs_slices,
        sequence_ks=(128, 256, 512),
        slice_multipliers=(1, 2, 4, 6, 8),
    )
    print()
    print(result.to_text())

    def series(seq_k):
        return {r["num_slices"]: r["mfu"] for r in result.rows if r["sequence_k"] == seq_k}

    for seq_k in (128, 256, 512):
        assert all(0.1 < mfu < 0.6 for mfu in series(seq_k).values())

    # The optimal slice count does not shrink as the context grows.
    assert result.summary["s512k.best_slices"] >= result.summary["s128k.best_slices"]

    # The short-context curve degrades more by the largest slice count.
    short = series(128)
    long = series(512)
    n_max = max(short)
    short_drop = max(short.values()) - short[n_max]
    long_drop = max(long.values()) - long[n_max]
    assert short_drop > long_drop
