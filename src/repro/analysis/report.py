"""Plain-text rendering helpers and the one table type of the analysis layer.

The reproduction has no plotting dependency.  Every experiment generator
returns a :class:`Table` — a title, :class:`Column` specs and plain dict
rows — rendered through :func:`render_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Column",
    "Table",
    "render_table",
    "format_bytes",
    "format_percent",
]

#: One table row: field name -> value.
Row = Dict[str, Any]


@dataclass(frozen=True)
class Column:
    """One rendered column: a header, the row field it shows, a format.

    ``fmt`` is either a ``str.format`` template applied to ``row[key]``
    (``"{:.1f}"``, ``"{}K"``) or a function of the whole row, for cells that
    combine fields (``"OOM"`` when the row is infeasible).
    """

    header: str
    key: str
    fmt: Union[str, Callable[[Row], str]] = "{}"

    def cell(self, row: Row) -> str:
        if callable(self.fmt):
            return self.fmt(row)
        return self.fmt.format(row[self.key])


@dataclass
class Table:
    """An experiment's result: rows of plain values plus how to show them.

    * ``columns`` render ``rows`` under ``title``; a table without columns
      renders only its title line, and ``body`` (free text such as a
      schedule timeline) follows either form.
    * ``panels`` make a multi-panel figure: the table renders its panels
      one after another, and the panels carry the rows.
    * ``summary`` holds the experiment's scalar results that are not rows
      (the number of context-exchange transfers, the best slice count).
    * ``golden`` declares the key layout of the golden metrics: each
      ``(template, fields)`` pair maps every row (and the summary) carrying a
      field to ``template.format(field, **row)`` -> value, so
      ``("p{pipeline_parallel_size}.{}", ("mfu",))`` pins ``p8.mfu``.
    """

    title: str
    columns: Sequence[Column] = ()
    rows: List[Row] = field(default_factory=list)
    body: str = ""
    panels: Sequence["Table"] = ()
    summary: Row = field(default_factory=dict)
    golden: Sequence[Tuple[str, Sequence[str]]] = ()

    def to_text(self) -> str:
        if self.panels:
            return "\n".join(panel.to_text() for panel in self.panels)
        if not self.columns:
            return f"{self.title}\n{self.body}"
        text = render_table(
            [column.header for column in self.columns],
            [[column.cell(row) for column in self.columns] for row in self.rows],
            title=self.title,
        )
        return text + self.body

    def row(self, **match: Any) -> Row:
        """The one row whose fields equal ``match`` (``KeyError`` otherwise)."""
        found = [
            row for row in self.rows
            if all(key in row and row[key] == value for key, value in match.items())
        ]
        if len(found) != 1:
            raise KeyError(f"{len(found)} rows of {self.title!r} match {match}")
        return found[0]

    def golden_metrics(self) -> Dict[str, Any]:
        """The flat metrics dict the ``golden`` layout declares."""
        metrics: Dict[str, Any] = {}
        for panel in self.panels:
            metrics.update(panel.golden_metrics())
        for row in self.rows + [self.summary]:
            for template, fields in self.golden:
                for name in fields:
                    if name in row:
                        metrics[template.format(name, **row)] = row[name]
        return metrics


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned monospace table.

    ``rows`` may contain any objects; they are stringified with ``str``.
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def format_bytes(num_bytes: float) -> str:
    """Human-readable byte count (GiB for anything large)."""
    if num_bytes >= 1024**3:
        return f"{num_bytes / 1024**3:.1f} GiB"
    if num_bytes >= 1024**2:
        return f"{num_bytes / 1024**2:.1f} MiB"
    if num_bytes >= 1024:
        return f"{num_bytes / 1024:.1f} KiB"
    return f"{num_bytes:.0f} B"


def format_percent(fraction: float, digits: int = 1) -> str:
    """Format a fraction in [0, 1] as a percentage string."""
    return f"{fraction * 100:.{digits}f}%"
