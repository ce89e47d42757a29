"""Per-figure experiment definitions — one function per paper artifact.

Each ``figN`` function reruns the experiments behind the corresponding
figure of the paper and returns a :class:`FigureResult` holding the same
series the paper plots (labels included). Tables 1 and 2 are exposed as
data by :func:`table1` and :func:`table2`.

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
from .runner import compare_policies, sweep

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


def _base_config(duration: float, seed: int, **overrides) -> SimulationConfig:
    return SimulationConfig(duration=duration, seed=seed, **overrides)


def _cdf_figure(
    figure_id: str,
    title: str,
    policies: Sequence[str],
    heterogeneity: int,
    duration: Optional[float],
    seed: int,
    grid: Sequence[float],
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    duration = duration if duration is not None else default_duration()
    base = _base_config(duration, seed, heterogeneity=heterogeneity)
    results = compare_policies(base, policies, workers=workers, executor=executor)
    series = [
        Series(
            label=policy,
            x=list(grid),
            y=[results[policy].cdf().probability_below(x) for x in grid],
        )
        for policy in policies
    ]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Max Utilization",
        y_label="Cumulative Frequency",
        series=series,
        notes=f"heterogeneity {heterogeneity}%, duration {duration:g}s, seed {seed}",
    )


def fig1(
    duration: Optional[float] = None,
    seed: int = 1,
    grid: Sequence[float] = tuple(MAX_UTILIZATION_GRID),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 1 — deterministic algorithms, heterogeneity 20%."""
    return _cdf_figure(
        "fig1",
        "Deterministic algorithms (Het. 20%)",
        FIG1_POLICIES,
        heterogeneity=20,
        duration=duration,
        seed=seed,
        grid=grid,
        workers=workers,
        executor=executor,
    )


def fig2(
    duration: Optional[float] = None,
    seed: int = 1,
    grid: Sequence[float] = tuple(MAX_UTILIZATION_GRID),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 2 — probabilistic algorithms, heterogeneity 35%."""
    return _cdf_figure(
        "fig2",
        "Probabilistic algorithms (Het. 35%)",
        FIG2_POLICIES,
        heterogeneity=35,
        duration=duration,
        seed=seed,
        grid=grid,
        workers=workers,
        executor=executor,
    )


def _sweep_figure(
    figure_id: str,
    title: str,
    x_label: str,
    policies: Sequence[str],
    parameter: str,
    values: Sequence[float],
    duration: Optional[float],
    seed: int,
    threshold: float = OVERLOAD_THRESHOLD,
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
    **base_overrides,
) -> FigureResult:
    duration = duration if duration is not None else default_duration()
    series = []
    for policy in policies:
        base = _base_config(duration, seed, policy=policy, **base_overrides)
        rows = sweep(
            base,
            parameter,
            values,
            metric=lambda result: result.prob_max_below(threshold),
            workers=workers,
            executor=executor,
        )
        series.append(
            Series(
                label=policy,
                x=[float(value) for value, _, _ in rows],
                y=[metric_value for _, metric_value, _ in rows],
            )
        )
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label=f"Prob(maxUtilization < {threshold:g})",
        series=series,
        notes=f"duration {duration:g}s, seed {seed}",
    )


def fig3(
    duration: Optional[float] = None,
    seed: int = 1,
    levels: Sequence[int] = tuple(HETEROGENEITY_SWEEP),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 3 — sensitivity to system heterogeneity (20-65%)."""
    return _sweep_figure(
        "fig3",
        "Sensitivity to system heterogeneity",
        "Heterogeneity (max difference among server capacities %)",
        FIG3_POLICIES,
        parameter="heterogeneity",
        values=list(levels),
        duration=duration,
        seed=seed,
        workers=workers,
        executor=executor,
    )


def fig4(
    duration: Optional[float] = None,
    seed: int = 1,
    thresholds: Sequence[float] = tuple(MIN_TTL_SWEEP),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 4 — sensitivity to the minimum accepted TTL (Het. 20%)."""
    return _sweep_figure(
        "fig4",
        "Sensitivity to minimum TTL (Het. 20%)",
        "Minimum TTL (sec)",
        FIG45_POLICIES,
        parameter="min_accepted_ttl",
        values=list(thresholds),
        duration=duration,
        seed=seed,
        workers=workers,
        executor=executor,
        heterogeneity=20,
    )


def fig5(
    duration: Optional[float] = None,
    seed: int = 1,
    thresholds: Sequence[float] = tuple(MIN_TTL_SWEEP),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 5 — sensitivity to the minimum accepted TTL (Het. 50%)."""
    return _sweep_figure(
        "fig5",
        "Sensitivity to minimum TTL (Het. 50%)",
        "Minimum TTL (sec)",
        FIG45_POLICIES,
        parameter="min_accepted_ttl",
        values=list(thresholds),
        duration=duration,
        seed=seed,
        workers=workers,
        executor=executor,
        heterogeneity=50,
    )


def fig6(
    duration: Optional[float] = None,
    seed: int = 1,
    errors: Sequence[float] = tuple(ERROR_SWEEP),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 6 — sensitivity to hidden-load estimation error (Het. 20%)."""
    return _sweep_figure(
        "fig6",
        "Sensitivity to estimation error (Het. 20%)",
        "Estimation Error %",
        FIG67_POLICIES,
        parameter="workload_error",
        values=list(errors),
        duration=duration,
        seed=seed,
        workers=workers,
        executor=executor,
        heterogeneity=20,
    )


def fig7(
    duration: Optional[float] = None,
    seed: int = 1,
    errors: Sequence[float] = tuple(ERROR_SWEEP),
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> FigureResult:
    """Figure 7 — sensitivity to hidden-load estimation error (Het. 50%)."""
    return _sweep_figure(
        "fig7",
        "Sensitivity to estimation error (Het. 50%)",
        "Estimation Error %",
        FIG67_POLICIES,
        parameter="workload_error",
        values=list(errors),
        duration=duration,
        seed=seed,
        workers=workers,
        executor=executor,
        heterogeneity=50,
    )


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
