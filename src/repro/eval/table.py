"""One table type and one renderer for every figure and table of the report.

Each experiment module turns its data into :class:`Table` objects: columns,
rows of measured cells, the paper's reading beside each cell that has one,
and notes.  :func:`render_tables` draws a list of them as column-aligned
Markdown, which reads in a terminal and is valid in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import paper_values

#: How a missing value renders (an unavailable bar, a failed request).
MISSING = "–"

#: Cell templates: each column formats its values, and the paper's readings
#: beside them, through one of these.
TEXT = "{}"
SPEEDUP = "{:.2f}×"
RATE = "{:.2f}"
PERCENT = "{:+.1%}"
COUNT = "{:.0f}"


@dataclass(frozen=True)
class Column:
    """A heading, and the template its cells format through."""

    name: str
    template: str = TEXT


@dataclass(frozen=True)
class Cell:
    """A measured value with the paper's reading of it; ``None`` is missing."""

    value: object
    paper: Optional[float] = None


@dataclass
class Table:
    """One figure or table: rows of plain values, or :class:`Cell` objects
    where the paper gives a reading.

    ``summary`` (a geometric-mean row) renders after the rows but is not a
    data row, so :meth:`with_paper_error` leaves it out.
    """

    title: str
    columns: list[Column]
    rows: list[list[object]]
    summary: Optional[list[object]] = None
    notes: list[str] = field(default_factory=list)

    def with_paper_error(self) -> "Table":
        """Note :func:`~repro.eval.paper_values.paper_error` over the data
        cells that have both a measured value and a paper reading."""

        pairs = [
            (cell.value, cell.paper) for row in self.rows for cell in row
            if isinstance(cell, Cell) and cell.value is not None and cell.paper is not None
        ]
        if pairs:
            self.notes.append(
                f"paper_err {paper_values.paper_error(pairs):.4f}: the mean "
                f"|ln(measured ÷ paper)| over the {len(pairs)} measured cells with a "
                "paper reading."
            )
        return self


def _text(cell: object, template: str) -> str:
    value, paper = (cell.value, cell.paper) if isinstance(cell, Cell) else (cell, None)
    text = MISSING if value is None else template.format(value)
    return text if paper is None else f"{text} (paper {template.format(paper)})"


def _line(cells: list[str], widths: list[int]) -> str:
    return "| " + " | ".join(cell.ljust(width) for cell, width in zip(cells, widths)) + " |"


def render_tables(tables: Iterable[Table]) -> str:
    """Render ``tables`` as column-aligned Markdown, one section each."""

    sections = []
    for table in tables:
        rows = table.rows + ([table.summary] if table.summary is not None else [])
        texts = [
            [_text(cell, column.template) for cell, column in zip(row, table.columns)]
            for row in rows
        ]
        header = [column.name for column in table.columns]
        widths = [max(len(text) for text in column) for column in zip(header, *texts)]
        lines = [f"## {table.title}", "", _line(header, widths),
                 "|" + "|".join("-" * (width + 2) for width in widths) + "|"]
        lines += [_line(row, widths) for row in texts]
        sections.append("\n\n".join(["\n".join(lines), *table.notes]))
    return "\n\n".join(sections)
