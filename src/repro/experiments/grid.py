"""Full-factorial experiment grids.

:func:`run_grid` drives the cartesian product of parameter values over a
base configuration — the workhorse behind "compare every policy at every
heterogeneity level under every estimator" style studies — and returns a
:class:`GridResult` that can pivot any scalar metric into a table or CSV.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .config import SimulationConfig
from .executor import ExecutionStats, ParallelExecutor
from .metrics import OVERLOAD_THRESHOLD, SimulationResult
from .reporting import format_table
from .runner import run_cells

#: One grid cell: parameter assignment -> result.
Cell = Tuple[Dict[str, object], SimulationResult]

Metric = Callable[[SimulationResult], float]


def _default_metric(result: SimulationResult) -> float:
    return result.prob_max_below(OVERLOAD_THRESHOLD)


@dataclass
class GridResult:
    """All cells of a factorial run, with pivot helpers."""

    parameters: List[str]
    cells: List[Cell] = field(default_factory=list)
    #: Timing of the batch that filled :attr:`cells` (set by
    #: :func:`run_grid`; per-cell wall times align with cell order).
    execution: Optional[ExecutionStats] = None

    def __len__(self) -> int:
        return len(self.cells)

    def value(
        self, metric: Optional[Metric] = None, **assignment
    ) -> float:
        """Metric of the single cell matching ``assignment``."""
        metric = metric or _default_metric
        matches = [
            result
            for params, result in self.cells
            if all(params.get(k) == v for k, v in assignment.items())
        ]
        if len(matches) != 1:
            raise ConfigurationError(
                f"assignment {assignment!r} matches {len(matches)} cells"
            )
        return metric(matches[0])

    def pivot(
        self,
        rows: str,
        columns: str,
        metric: Optional[Metric] = None,
    ) -> Tuple[List[object], List[object], List[List[float]]]:
        """Aggregate the grid into a (row values, col values, matrix)."""
        if rows not in self.parameters or columns not in self.parameters:
            raise ConfigurationError(
                f"pivot axes must be grid parameters {self.parameters!r}"
            )
        metric = metric or _default_metric
        row_values = sorted(
            {params[rows] for params, _ in self.cells}, key=str
        )
        col_values = sorted(
            {params[columns] for params, _ in self.cells}, key=str
        )
        matrix: List[List[float]] = []
        for row_value in row_values:
            line = []
            for col_value in col_values:
                values = [
                    metric(result)
                    for params, result in self.cells
                    if params[rows] == row_value
                    and params[columns] == col_value
                ]
                line.append(sum(values) / len(values) if values else float("nan"))
            matrix.append(line)
        return row_values, col_values, matrix

    def pivot_table(
        self,
        rows: str,
        columns: str,
        metric: Optional[Metric] = None,
        precision: int = 3,
    ) -> str:
        """The pivot rendered as an aligned text table."""
        row_values, col_values, matrix = self.pivot(rows, columns, metric)
        headers = [f"{rows}\\{columns}"] + [str(v) for v in col_values]
        body = [
            [str(row_value)] + [f"{v:.{precision}f}" for v in line]
            for row_value, line in zip(row_values, matrix)
        ]
        return format_table(headers, body)

    def to_csv(self, metric: Optional[Metric] = None) -> str:
        """Long-format CSV: one line per cell plus the metric column."""
        metric = metric or _default_metric
        lines = [",".join(self.parameters + ["metric"])]
        for params, result in self.cells:
            lines.append(
                ",".join(
                    [str(params[name]) for name in self.parameters]
                    + [f"{metric(result):.6f}"]
                )
            )
        return "\n".join(lines) + "\n"


def run_grid(
    base: SimulationConfig,
    axes: Mapping[str, Sequence],
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> GridResult:
    """Run the cartesian product of ``axes`` over ``base``.

    Parameters
    ----------
    base:
        Template configuration.
    axes:
        Mapping of :class:`SimulationConfig` field name to the values it
        takes; every combination is simulated once.
    progress:
        Optional callback invoked with each assignment before it is
        submitted (under ``workers>1`` all callbacks fire up front,
        before any cell completes).
    workers:
        Worker processes for the grid's cells (1 = serial). Cell
        ordering and every metric are identical for any value — each
        cell's config (seed included) is fixed before submission.
    executor:
        A pre-built :class:`ParallelExecutor` to use instead of
        ``workers``; combining it with ``workers`` other than 1 raises
        :class:`~repro.errors.ConfigurationError`.
    """
    if not axes:
        raise ConfigurationError("need at least one grid axis")
    names = list(axes)
    assignments = [
        dict(zip(names, combination))
        for combination in itertools.product(*(axes[name] for name in names))
    ]
    if progress is not None:
        for assignment in assignments:
            progress(assignment)
    results, stats = run_cells(base, assignments, workers, executor)
    return GridResult(
        parameters=names, cells=list(zip(assignments, results)), execution=stats
    )
