"""Plain-text tables in the layout of the paper's tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

Cell = Union[str, float, int, None]


def format_cell(value: Cell, precision: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "nan"
    magnitude = abs(value)
    if magnitude != 0 and (magnitude >= 1e5 or magnitude < 10 ** (-precision)):
        return f"{value:.{precision}e}"
    return f"{value:.{precision}f}"


@dataclass
class Table:
    """A titled table with a label column plus value columns."""

    title: str
    columns: Sequence[str]
    rows: list[tuple[str, list[Cell]]] = field(default_factory=list)
    precision: int = 2

    def add_row(self, label: str, values: Iterable[Cell]) -> None:
        values = list(values)
        if len(values) != len(self.columns):
            raise ValueError(
                f"row {label!r} has {len(values)} cells for "
                f"{len(self.columns)} columns"
            )
        self.rows.append((label, values))

    def to_text(self) -> str:
        header = [""] + list(self.columns)
        body = [
            [label] + [format_cell(v, self.precision) for v in values]
            for label, values in self.rows
        ]
        widths = [
            max(len(row[i]) for row in [header] + body)
            for i in range(len(header))
        ]
        def fmt(row: list[str]) -> str:
            first = row[0].ljust(widths[0])
            rest = [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
            return "  ".join([first] + rest)

        rule = "-" * (sum(widths) + 2 * len(widths) - 2)
        lines = [self.title, rule, fmt(header), rule]
        lines += [fmt(r) for r in body]
        lines.append(rule)
        return "\n".join(lines)

    def column(self, name: str) -> list[Cell]:
        """Values of one column, top to bottom."""
        idx = list(self.columns).index(name)
        return [values[idx] for _, values in self.rows]

    def cell(self, row_label: str, column: str) -> Cell:
        idx = list(self.columns).index(column)
        for label, values in self.rows:
            if label == row_label:
                return values[idx]
        raise KeyError(f"no row labelled {row_label!r}")
