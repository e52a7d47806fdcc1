"""Table 3 — model specifications: parameter counts derived from the configs
match the paper's reported sizes (13.3B / 69.5B / 148.9B / 47.0B / 141.0B)."""

import pytest

from repro.analysis.tables import table3_model_specifications

PAPER_PARAMS = {
    "llama-13b": 13.3,
    "llama-70b": 69.5,
    "llama-149b": 148.9,
    "mixtral-8x7b": 47.0,
    "mixtral-8x22b": 141.0,
}


def test_table3_model_specifications(benchmark):
    table = benchmark(table3_model_specifications)
    print()
    print(table.to_text())
    for row in table.rows:
        assert row["params_billions"] == pytest.approx(PAPER_PARAMS[row["model"]], rel=0.02)
