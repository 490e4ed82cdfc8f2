"""Plain-text table rendering for benchmark reports.

The benchmark harness prints the same rows the paper's figures plot;
:class:`Table` renders them as aligned ASCII so ``EXPERIMENTS.md`` and
terminal output stay readable without a plotting dependency.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any


class Table:
    """An incrementally built, column-aligned ASCII table.

    >>> t = Table(["P", "original (s)", "directive (s)"])
    >>> t.add_row([33, 0.0123, 0.0119])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    P   | original (s) | directive (s)
    ----+--------------+--------------
    33  | 0.0123       | 0.0119
    """

    def __init__(self, headers: Sequence[str], *, float_fmt: str = ".4g"):
        self.headers = [str(h) for h in headers]
        self.float_fmt = float_fmt
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        """Append one row (floats formatted per ``float_fmt``)."""
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(format(value, self.float_fmt))
            else:
                cells.append(str(value))
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """The aligned ASCII table text."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def line(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        sep = "-+-".join("-" * w for w in widths)
        out = [line(self.headers), sep]
        out.extend(line(r) for r in self.rows)
        return "\n".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
