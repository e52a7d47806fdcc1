"""Figure 14 — GPU memory of the PP schemes across context lengths (Llama 13B).

Paper claim: the zero-bubble variants run out of memory first (their built-in
checkpointing is broken), default 1F1B survives up to 256K, and SlimPipe uses
the least memory at every context length and is the only scheme to reach 512K
comfortably.
"""

from repro.analysis.figures import figure14_scheme_memory


def test_figure14_scheme_memory(once):
    result = once(figure14_scheme_memory, sequence_ks=(32, 64, 128, 256, 512))
    print()
    print(result.to_text())

    def row(scheme, seq_k):
        return result.row(scheme=scheme, sequence_k=seq_k)

    # SlimPipe has the smallest footprint wherever the others still run.
    for seq_k in (32, 64, 128, 256):
        slim = row("slimpipe", seq_k)
        for scheme in ("zb-v", "v-half", "1f1b", "interleaved-1f1b"):
            other = row(scheme, seq_k)
            if other["feasible"]:
                assert slim["peak_memory_gib"] < other["peak_memory_gib"]

    # OOM ordering: zero-bubble variants first, then default 1F1B at 512K.
    assert not row("zb-v", 512)["feasible"]
    assert not row("v-half", 512)["feasible"]
    assert not row("1f1b", 512)["feasible"]
    assert row("slimpipe", 512)["feasible"]

    # Memory grows with context length for every feasible scheme.
    for scheme in ("1f1b", "interleaved-1f1b", "slimpipe"):
        series = [
            row(scheme, seq_k)["peak_memory_gib"]
            for seq_k in (32, 64, 128, 256)
            if row(scheme, seq_k)["feasible"]
        ]
        assert series == sorted(series)
