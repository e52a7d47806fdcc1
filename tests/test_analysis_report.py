"""Tests for the text-rendering helpers of the analysis layer."""

import pytest

from repro.analysis.report import (
    Column,
    Table,
    format_bytes,
    format_percent,
    render_table,
)


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["a", "bbb"], [(1, 2), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert lines[2].startswith("-")
        assert len(lines) == 5

    def test_no_title(self):
        text = render_table(["x"], [(1,)])
        assert text.splitlines()[0].strip() == "x"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_columns_are_aligned(self):
        text = render_table(["col", "v"], [("short", 1), ("much-longer-cell", 2)])
        lines = text.splitlines()
        positions = [line.index("1") if "1" in line else line.index("2") for line in lines[2:]]
        assert len(set(positions)) == 1


class TestFormatters:
    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(3 * 1024**2) == "3.0 MiB"
        assert format_bytes(5 * 1024**3) == "5.0 GiB"

    def test_format_percent(self):
        assert format_percent(0.4567) == "45.7%"
        assert format_percent(0.4567, digits=0) == "46%"


def _table(**kwargs):
    return Table(
        title="T",
        columns=(
            Column("p", "p"),
            Column("mfu", "mfu", "{:.1%}"),
            Column("fits", "feasible", lambda row: "yes" if row["feasible"] else "OOM"),
        ),
        rows=[
            {"p": 2, "mfu": 0.25, "feasible": True},
            {"p": 4, "mfu": 0.5, "feasible": False},
        ],
        **kwargs,
    )


class TestTable:
    def test_renders_through_render_table(self):
        assert _table().to_text() == render_table(
            ["p", "mfu", "fits"], [(2, "25.0%", "yes"), (4, "50.0%", "OOM")], title="T"
        )

    def test_body_follows_the_table_or_stands_alone(self):
        assert _table(body="note\n").to_text().endswith("OOM \nnote\n")
        assert Table(title="Figure", body="timeline\n").to_text() == "Figure\ntimeline\n"

    def test_panels_render_in_order(self):
        a, b = _table(), Table(title="U", columns=(Column("x", "x"),), rows=[{"x": 1}])
        assert Table(title="both", panels=(a, b)).to_text() == a.to_text() + "\n" + b.to_text()

    def test_row_lookup_needs_exactly_one_match(self):
        table = _table()
        assert table.row(p=4)["mfu"] == 0.5
        with pytest.raises(KeyError):
            table.row(p=8)
        table.rows.append({"p": 4, "mfu": 0.1, "feasible": True})
        with pytest.raises(KeyError):
            table.row(p=4)

    def test_golden_layout_covers_rows_panels_and_summary(self):
        table = _table(
            summary={"best_p": 2},
            golden=(("p{p}.{}", ("mfu", "feasible")), ("{}", ("best_p",))),
        )
        expected = {
            "p2.mfu": 0.25,
            "p2.feasible": True,
            "p4.mfu": 0.5,
            "p4.feasible": False,
            "best_p": 2,
        }
        assert table.golden_metrics() == expected
        assert Table(title="both", panels=(table,)).golden_metrics() == expected
