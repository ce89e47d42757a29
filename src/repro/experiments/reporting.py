"""Plain-text and CSV rendering of experiment outputs.

The paper's figures are line plots; in a library context the same data is
most useful as aligned text tables (for terminals and logs) and CSV (for
any plotting tool). No plotting dependency is required.
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence

from .executor import ExecutionStats
from .figures import FigureResult
from .metrics import SimulationResult


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned, pipe-separated text table."""
    cells = [[str(h) for h in headers]] + [
        [str(value) for value in row] for row in rows
    ]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append(
            " | ".join(value.ljust(width) for value, width in zip(row, widths))
        )
        if index == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines)


def render_figure(figure: FigureResult, precision: int = 3) -> str:
    """A text rendering of a figure: one column per series."""
    headers = [figure.x_label] + [series.label for series in figure.series]
    x_values = figure.series[0].x if figure.series else []
    rows = []
    for index, x in enumerate(x_values):
        row: List[object] = [f"{x:g}"]
        for series in figure.series:
            row.append(f"{series.y[index]:.{precision}f}")
        rows.append(row)
    title = f"{figure.figure_id}: {figure.title}"
    body = format_table(headers, rows)
    notes = f"({figure.y_label}; {figure.notes})" if figure.notes else ""
    return "\n".join(part for part in (title, body, notes) if part)


def figure_to_csv(figure: FigureResult) -> str:
    """CSV text of a figure (x column then one column per series)."""
    out = io.StringIO()
    headers = [figure.x_label] + [series.label for series in figure.series]
    out.write(",".join(_csv_quote(h) for h in headers) + "\n")
    x_values = figure.series[0].x if figure.series else []
    for index, x in enumerate(x_values):
        row = [f"{x:g}"] + [f"{s.y[index]:.6f}" for s in figure.series]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in ',"\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def render_result(result: SimulationResult) -> str:
    """A one-run summary block."""
    summary = result.summary()
    rows = [(key, _format_value(value)) for key, value in summary.items()]
    per_server = ", ".join(
        f"S{i + 1}={u:.3f}"
        for i, u in enumerate(result.mean_utilization_per_server)
    )
    return "\n".join(
        [
            format_table(["metric", "value"], rows),
            f"mean utilization per server: {per_server}",
        ]
    )


def render_comparison(results: Dict[str, SimulationResult]) -> str:
    """Side-by-side summary of several policies on the same scenario."""
    rows = []
    for policy, result in results.items():
        summary = result.summary()
        rows.append(
            (
                policy,
                f"{summary['prob_max_below_098']:.3f}",
                f"{summary['prob_max_below_090']:.3f}",
                f"{summary['mean_max_utilization']:.3f}",
                f"{summary['mean_granted_ttl']:.0f}",
                f"{summary['dns_control_fraction']:.4f}",
            )
        )
    return format_table(
        [
            "policy",
            "P(max<0.98)",
            "P(max<0.90)",
            "mean max util",
            "mean TTL (s)",
            "DNS control",
        ],
        rows,
    )


#: Per-cell timing lines are listed individually up to this many cells;
#: larger batches show only the aggregate summary.
MAX_LISTED_CELLS = 20


def render_execution(
    stats: ExecutionStats, labels: Optional[Sequence[str]] = None
) -> str:
    """An execution-timing summary block (see :class:`ExecutionStats`).

    Shows worker count, wall time, per-cell wall-time aggregates and the
    speedup over the serial-equivalent time. When the batch holds at
    most :data:`MAX_LISTED_CELLS` cells, each cell's wall time is listed
    too (``labels``, if given, name the cells in submission order).
    """
    lines = [format_table(["execution", "value"], stats.summary_rows())]
    if 0 < stats.cell_count <= MAX_LISTED_CELLS:
        rows = []
        for index, elapsed in enumerate(stats.cell_times):
            label = (
                labels[index]
                if labels is not None and index < len(labels)
                else f"cell {index}"
            )
            rows.append((label, f"{elapsed:.3f} s"))
        lines.append(format_table(["cell", "wall time"], rows))
    return "\n\n".join(lines)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
