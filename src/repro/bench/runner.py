"""Result containers, rendering and sizing for the experiment suite.

Every experiment produces an :class:`ExperimentResult`: one or more
:class:`Table` objects (the paper-style rows) and optional named series
(time series / sweeps — the "figures").  ``print_result`` renders them
as aligned ASCII for the bench logs and EXPERIMENTS.md.

An experiment's sizing is stated once: ``run``'s signature defaults
are its ``DEFAULTS`` (:func:`signature_defaults`), and ``QUICK`` holds
only the parameters the CI sizing overrides (:func:`sizing`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple


def signature_defaults(run: Callable[..., Any]) -> Dict[str, Any]:
    """``run``'s keyword defaults — an experiment module's ``DEFAULTS``."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(run).parameters.items()
    }


def sizing(module: Any, quick: bool = False) -> Dict[str, Any]:
    """The full parameter set ``module.run`` executes at one sizing:
    ``DEFAULTS``, with ``QUICK``'s overrides on top when ``quick``.
    This is also the ``params`` handed to ``module.check``."""
    params = dict(module.DEFAULTS)
    if quick:
        params.update(module.QUICK)
    return params


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3g}"
        return f"{value:.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class Table:
    """An ordered table of result rows."""

    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        unknown = set(row) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)} for table {self.title!r}")
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def row_by(self, key_column: str, key_value: Any) -> Dict[str, Any]:
        """First row whose ``key_column`` equals ``key_value``."""
        for row in self.rows:
            if row.get(key_column) == key_value:
                return row
        raise KeyError(f"no row with {key_column}={key_value!r} in {self.title!r}")

    def render(self) -> str:
        widths = {c: len(c) for c in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {c: _fmt(row.get(c, "")) for c in self.columns}
            rendered_rows.append(rendered)
            for c in self.columns:
                widths[c] = max(widths[c], len(rendered[c]))
        lines = [self.title, "-" * len(self.title)]
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("  ".join("-" * widths[c] for c in self.columns))
        for rendered in rendered_rows:
            lines.append("  ".join(rendered[c].ljust(widths[c]) for c in self.columns))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    experiment: str
    claim: str
    tables: List[Table] = field(default_factory=list)
    series: Dict[str, Sequence[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: non-rendered payloads (e.g. per-config ``repro.obs`` tracers for
    #: trace-report generation and JSONL export); never printed
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def table(self, title: str) -> Table:
        for table in self.tables:
            if table.title == title:
                return table
        raise KeyError(f"no table {title!r} in {self.experiment}")

    def new_table(self, title: str, columns: List[str]) -> Table:
        table = Table(title=title, columns=columns)
        self.tables.append(table)
        return table

    def render(self) -> str:
        lines = [f"=== {self.experiment} ===", f"claim: {self.claim}", ""]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for name, points in self.series.items():
            lines.append(f"series {name}: {len(points)} points, "
                         f"last={points[-1] if points else None}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def print_result(result: ExperimentResult) -> None:
    print(result.render())


def sparkline(points: Sequence[Tuple[float, float]], width: int = 60) -> str:
    """Tiny ASCII rendering of a series (bench log flavor)."""
    if not points:
        return "(empty)"
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    if hi == lo:
        return "▁" * min(width, len(values))
    blocks = "▁▂▃▄▅▆▇█"
    step = max(1, len(values) // width)
    sampled = values[::step][:width]
    return "".join(blocks[int((v - lo) / (hi - lo) * (len(blocks) - 1))] for v in sampled)
