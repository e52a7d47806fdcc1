#!/usr/bin/env python3
"""Compare pipeline-parallelism schemes on one model (Figures 2, 3, 13, 14).

A systems-design scenario: you maintain a training stack for Llama-13B-class
models and need to decide which pipeline schedule to adopt for long-context
fine-tuning on a single 64-GPU pod (8-way TP x 8-way PP).  The script compares
GPipe-descendant schemes (default and interleaved 1F1B), the zero-bubble
V-schedules, and SlimPipe on three axes:

* the maximum context length each schedule can even fit (Figure 2),
* the theoretical pipeline bubble at a long-context operating point (Figure 3),
* efficiency and memory across context lengths (Figures 13 / 14).

Run with::

    python examples/compare_pp_schemes.py
"""

from repro.analysis.figures import (
    figure2_max_context,
    figure3_bubble_fractions,
    figure13_scheme_mfu,
)
from repro.analysis.report import render_table


def main() -> None:
    # ------------------------------------------------------------------
    # 1. How far can each schedule stretch the context window?
    # ------------------------------------------------------------------
    max_context = figure2_max_context(max_context_k=768, step_k=8)
    print(max_context.to_text())

    # ------------------------------------------------------------------
    # 2. How much device time does each schedule waste at 256K?
    # ------------------------------------------------------------------
    bubbles = figure3_bubble_fractions()
    print(bubbles.to_text())

    # ------------------------------------------------------------------
    # 3. Efficiency and memory across context lengths (full checkpointing).
    # ------------------------------------------------------------------
    sweep = figure13_scheme_mfu(sequence_ks=(32, 64, 128, 256, 512))
    print(sweep.to_text())

    # ------------------------------------------------------------------
    # 4. A decision summary.
    # ------------------------------------------------------------------
    summary = []
    for scheme in ("zb-v", "v-half", "1f1b", "interleaved-1f1b", "slimpipe"):
        feasible = [r for r in sweep.rows if r["scheme"] == scheme and r["feasible"]]
        reachable = [r["sequence_k"] for r in feasible]
        best_mfu = max((r["mfu"] for r in feasible), default=0.0)
        summary.append(
            (
                scheme,
                f"{max_context.row(scheme=scheme)['max_context_k']}K",
                f"{max(reachable)}K" if reachable else "-",
                f"{best_mfu * 100:.1f}%",
                f"{bubbles.row(scheme=scheme)['bubble_fraction'] * 100:.1f}%",
            )
        )
    print(
        render_table(
            ["scheme", "max context (no recompute)", "max context (full ckpt)", "best MFU", "bubble @256K"],
            summary,
            title="Decision summary — Llama 13B, 8-way TP, 8-way PP",
        )
    )
    print(
        "SlimPipe is the only schedule that combines the longest reachable context\n"
        "with the highest efficiency and the smallest bubble — the trade the paper\n"
        "summarises in Table 2 and demonstrates in Figures 13/14."
    )


if __name__ == "__main__":
    main()
