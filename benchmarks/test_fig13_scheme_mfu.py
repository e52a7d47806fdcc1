"""Figure 13 — MFU of the PP schemes across context lengths (Llama 13B).

Paper setting: batch of 4 sequences, 8-way TP, full checkpointing (except the
zero-bubble variants, whose checkpointing is broken), 5 stages per device for
the interleaved schemes.  Claim: SlimPipe delivers the highest efficiency at
every context length, the zero-bubble variants die early, and default 1F1B is
slow throughout.
"""

from repro.analysis.figures import figure13_scheme_mfu


def test_figure13_scheme_mfu(once):
    result = once(figure13_scheme_mfu, sequence_ks=(32, 64, 128, 256, 512))
    print()
    print(result.to_text())

    for seq_k in (32, 64, 128, 256, 512):
        slim = result.row(scheme="slimpipe", sequence_k=seq_k)
        assert slim["feasible"]
        for scheme in ("zb-v", "v-half", "1f1b", "interleaved-1f1b"):
            other = result.row(scheme=scheme, sequence_k=seq_k)
            if other["feasible"]:
                assert slim["mfu"] > other["mfu"], (scheme, seq_k)

    # Default 1F1B pays its warm-up bubbles: well below interleaved 1F1B.
    assert (
        result.row(scheme="1f1b", sequence_k=64)["mfu"]
        < result.row(scheme="interleaved-1f1b", sequence_k=64)["mfu"]
    )
