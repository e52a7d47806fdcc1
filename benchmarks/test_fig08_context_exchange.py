"""Figure 8 — rebalancing the attention workload by exchanging context.

The devices' concurrent KV loads form an arithmetic progression (worst at a
microbatch juncture); the exchange plan moves query + partial KV between
devices until every load is within one slice of the mean, and the exchanged
volume respects the Eq. 2 bound.
"""

from repro.analysis.figures import figure8_context_exchange_plan
from repro.core.context_exchange import (
    exchange_volume_bound,
    exchange_volume_per_microbatch,
)
from repro.model.config import LLAMA_13B


def test_figure8_context_exchange_plan(benchmark):
    result = benchmark(figure8_context_exchange_plan)
    print()
    print(result.to_text())

    assert result.summary["max_imbalance_before"] > 1.0
    assert result.summary["max_imbalance_after"] <= 1.0 + 1e-9
    assert sum(r["kv_after"] for r in result.rows) == sum(r["kv_before"] for r in result.rows)


def test_eq2_exchange_volume_bound(benchmark):
    """Eq. 2: exchanged volume stays below (2 - (p-1)/n) L M_h for every (p, n)."""

    def sweep():
        rows = []
        for p in (2, 4, 8, 16):
            for mult in (1, 2, 4, 8):
                n = p * mult
                vol = exchange_volume_per_microbatch(LLAMA_13B, 256 * 1024, n, p, 8)
                bound = exchange_volume_bound(LLAMA_13B, 256 * 1024, n, p, 8)
                rows.append((p, n, vol, bound))
        return rows

    rows = benchmark(sweep)
    print()
    print(f"{'p':>3} {'n':>4} {'volume (GiB)':>14} {'bound (GiB)':>13}")
    for p, n, vol, bound in rows:
        print(f"{p:>3} {n:>4} {vol / 2**30:>14.2f} {bound / 2**30:>13.2f}")
        assert vol <= bound * (1 + 1e-9)
