"""Per-figure experiment definitions — one function per paper artifact.

Each ``figN`` function reruns the experiments behind the corresponding
figure of the paper and returns a :class:`FigureResult` holding the same
series the paper plots (labels included). A figure is one row of
:data:`FIGURE_SPECS`; its cells run as one executor batch, numbered
policy-major (one checkpoint ledger per figure). Tables 1 and 2 are
exposed as data by :func:`table1` and :func:`table2`.

Runtime control: the paper simulates 5 hours per point; that is the
default here, but every function takes ``duration`` so the benchmark
harness can run shorter seeded runs. The helper
:func:`default_duration` honours the ``REPRO_PAPER_FIDELITY``
environment variable (any non-empty value restores full 5-hour runs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..web.cluster import HETEROGENEITY_LEVELS
from .config import PAPER_DURATION, SimulationConfig
from .executor import ParallelExecutor
from .metrics import OVERLOAD_THRESHOLD
from .runner import run_cells

#: Benchmark-friendly default duration (one simulated hour).
QUICK_DURATION = 3600.0

#: Grid on which the Figs. 1-2 cumulative-frequency curves are evaluated.
MAX_UTILIZATION_GRID = [round(0.5 + 0.02 * i, 2) for i in range(26)]

FIG1_POLICIES = [
    "IDEAL",
    "DRR2-TTL/S_K",
    "DRR-TTL/S_K",
    "DRR2-TTL/S_2",
    "DRR-TTL/S_2",
    "DRR2-TTL/S_1",
    "DRR-TTL/S_1",
    "RR",
]

FIG2_POLICIES = [
    "IDEAL",
    "PRR2-TTL/K",
    "PRR-TTL/K",
    "PRR2-TTL/2",
    "PRR-TTL/2",
    "PRR2-TTL/1",
    "PRR-TTL/1",
    "RR",
]

FIG3_POLICIES = [
    "DRR2-TTL/S_K",
    "DRR2-TTL/S_2",
    "PRR2-TTL/K",
    "PRR2-TTL/2",
    "DAL",
    "RR",
]

FIG45_POLICIES = [
    "DRR2-TTL/S_K",
    "DRR-TTL/S_K",
    "PRR2-TTL/K",
    "PRR-TTL/K",
    "PRR2-TTL/2",
]

FIG67_POLICIES = [
    "DRR2-TTL/S_K",
    "DRR-TTL/S_K",
    "PRR2-TTL/K",
    "PRR-TTL/K",
    "DRR2-TTL/S_2",
    "DRR-TTL/S_2",
    "PRR2-TTL/2",
    "PRR-TTL/2",
]

HETEROGENEITY_SWEEP = [20, 35, 50, 65]
MIN_TTL_SWEEP = [0.0, 30.0, 60.0, 90.0, 120.0]
ERROR_SWEEP = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def default_duration() -> float:
    """Quick (1 h) by default; full 5 h with ``REPRO_PAPER_FIDELITY=1``."""
    if os.environ.get("REPRO_PAPER_FIDELITY"):
        return PAPER_DURATION
    return QUICK_DURATION


@dataclass
class Series:
    """One plotted line: a label and its (x, y) points."""

    label: str
    x: List[float]
    y: List[float]

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ConfigurationError(
                f"series {self.label!r} has {len(self.x)} x values "
                f"but {len(self.y)} y values"
            )

    def as_rows(self) -> List[Tuple[float, float]]:
        return list(zip(self.x, self.y))


@dataclass
class FigureResult:
    """A regenerated paper figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: List[Series]
    notes: str = ""

    def series_by_label(self) -> Dict[str, Series]:
        return {s.label: s for s in self.series}

    def y_at(self, label: str, x: float) -> float:
        """The y value of ``label``'s series at grid point ``x``."""
        series = self.series_by_label()[label]
        return series.y[series.x.index(x)]


@dataclass(frozen=True)
class FigureSpec:
    """One row of :data:`FIGURE_SPECS`: what a paper figure runs and plots."""

    figure_id: str
    title: str
    x_label: str
    policies: Sequence[str]
    #: Heterogeneity of every cell (fig3 sweeps it, from the default 20).
    heterogeneity: int
    #: The swept :class:`SimulationConfig` field, or ``None`` for a
    #: cumulative-frequency figure (one cell per policy, y over a grid).
    parameter: Optional[str] = None


#: The seven paper figures, one row each.
FIGURE_SPECS = {
    spec.figure_id: spec
    for spec in (
        FigureSpec("fig1", "Deterministic algorithms (Het. 20%)",
                   "Max Utilization", FIG1_POLICIES, 20),
        FigureSpec("fig2", "Probabilistic algorithms (Het. 35%)",
                   "Max Utilization", FIG2_POLICIES, 35),
        FigureSpec("fig3", "Sensitivity to system heterogeneity",
                   "Heterogeneity (max difference among server capacities %)",
                   FIG3_POLICIES, 20, "heterogeneity"),
        FigureSpec("fig4", "Sensitivity to minimum TTL (Het. 20%)",
                   "Minimum TTL (sec)", FIG45_POLICIES, 20, "min_accepted_ttl"),
        FigureSpec("fig5", "Sensitivity to minimum TTL (Het. 50%)",
                   "Minimum TTL (sec)", FIG45_POLICIES, 50, "min_accepted_ttl"),
        FigureSpec("fig6", "Sensitivity to estimation error (Het. 20%)",
                   "Estimation Error %", FIG67_POLICIES, 20, "workload_error"),
        FigureSpec("fig7", "Sensitivity to estimation error (Het. 50%)",
                   "Estimation Error %", FIG67_POLICIES, 50, "workload_error"),
    )
}


def _run_figure(
    figure_id: str,
    duration: Optional[float],
    seed: int,
    values: Sequence[float],
    executor: Optional[ParallelExecutor],
) -> FigureResult:
    """Run one figure's cells as one batch and assemble its series.

    ``values`` is the CDF grid of a cumulative-frequency figure, else
    the swept field's values. A sweep's cells are policy-major: every
    value of the first policy, then of the next.
    """
    spec = FIGURE_SPECS[figure_id]
    duration = duration if duration is not None else default_duration()
    values = list(values)
    field = spec.parameter
    cells = [{"policy": policy} for policy in spec.policies]
    if field is not None:
        cells = [{**cell, field: value} for cell in cells for value in values]
    results, _ = run_cells(
        SimulationConfig(
            duration=duration, seed=seed, heterogeneity=spec.heterogeneity
        ),
        cells,
        executor=executor,
    )
    if field is None:
        cdfs = [result.cdf() for result in results]
        series = [
            Series(policy, list(values), [cdf.probability_below(x) for x in values])
            for policy, cdf in zip(spec.policies, cdfs)
        ]
        y_label = "Cumulative Frequency"
        notes = f"heterogeneity {spec.heterogeneity}%, "
    else:
        width = len(values)
        series = [
            Series(
                policy,
                [float(value) for value in values],
                [
                    result.prob_max_below(OVERLOAD_THRESHOLD)
                    for result in results[row * width : (row + 1) * width]
                ],
            )
            for row, policy in enumerate(spec.policies)
        ]
        y_label = f"Prob(maxUtilization < {OVERLOAD_THRESHOLD:g})"
        notes = ""
    return FigureResult(
        figure_id, spec.title, spec.x_label, y_label, series,
        notes=f"{notes}duration {duration:g}s, seed {seed}",
    )


def fig1(
    duration: Optional[float] = None,
    seed: int = 1,
    grid: Sequence[float] = tuple(MAX_UTILIZATION_GRID),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 1 — deterministic algorithms, heterogeneity 20%."""
    return _run_figure("fig1", duration, seed, grid, executor)


def fig2(
    duration: Optional[float] = None,
    seed: int = 1,
    grid: Sequence[float] = tuple(MAX_UTILIZATION_GRID),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 2 — probabilistic algorithms, heterogeneity 35%."""
    return _run_figure("fig2", duration, seed, grid, executor)


def fig3(
    duration: Optional[float] = None,
    seed: int = 1,
    levels: Sequence[int] = tuple(HETEROGENEITY_SWEEP),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 3 — sensitivity to system heterogeneity (20-65%)."""
    return _run_figure("fig3", duration, seed, levels, executor)


def fig4(
    duration: Optional[float] = None,
    seed: int = 1,
    thresholds: Sequence[float] = tuple(MIN_TTL_SWEEP),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 4 — sensitivity to the minimum accepted TTL (Het. 20%)."""
    return _run_figure("fig4", duration, seed, thresholds, executor)


def fig5(
    duration: Optional[float] = None,
    seed: int = 1,
    thresholds: Sequence[float] = tuple(MIN_TTL_SWEEP),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 5 — sensitivity to the minimum accepted TTL (Het. 50%)."""
    return _run_figure("fig5", duration, seed, thresholds, executor)


def fig6(
    duration: Optional[float] = None,
    seed: int = 1,
    errors: Sequence[float] = tuple(ERROR_SWEEP),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 6 — sensitivity to hidden-load estimation error (Het. 20%)."""
    return _run_figure("fig6", duration, seed, errors, executor)


def fig7(
    duration: Optional[float] = None,
    seed: int = 1,
    errors: Sequence[float] = tuple(ERROR_SWEEP),
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 7 — sensitivity to hidden-load estimation error (Het. 50%)."""
    return _run_figure("fig7", duration, seed, errors, executor)


def table1() -> List[Tuple[str, str]]:
    """Table 1 — the system-model parameters (defaults)."""
    return SimulationConfig().describe()


def table2() -> Dict[int, List[float]]:
    """Table 2 — relative server capacities per heterogeneity level."""
    return {
        level: list(alphas)
        for level, alphas in HETEROGENEITY_LEVELS.items()
        if level != 0
    }


#: All figure generators keyed by identifier (used by the CLI).
FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
}
