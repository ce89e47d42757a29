"""Experiment harness: configuration, simulation assembly, figures."""

from .checkpointing import (
    resume_run,
    run_checkpointed_cell,
    run_with_checkpoints,
    take_checkpoint,
    verify_checkpoint,
)
from .config import PAPER_DEFAULTS, PAPER_DURATION, SimulationConfig
from .dispatch import (
    BACKENDS,
    Backend,
    LocalBackend,
    RemoteBackend,
    resolve_backend,
)
from .executor import ExecutionStats, ParallelExecutor, resolve_workers
from .figures import (
    FIGURES,
    FigureResult,
    Series,
    default_duration,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    table1,
    table2,
)
from .metrics import (
    OVERLOAD_THRESHOLD,
    MaxUtilizationCollector,
    SimulationResult,
)
from .grid import GridResult, run_grid
from .paper import CHECKS
from .persistence import (
    config_from_dict,
    config_to_dict,
    figure_from_dict,
    figure_to_dict,
    load_json,
    result_from_dict,
    result_to_dict,
    save_json,
)
from .reporting import (
    figure_to_csv,
    format_table,
    render_comparison,
    render_execution,
    render_figure,
    render_result,
)
from .runner import ReplicationSet, compare_policies, run_cells, run_replications, sweep
from .simulation import Simulation, run_simulation
from .validation import ValidationCheck, ValidationReport, validate_run

__all__ = [
    "BACKENDS",
    "Backend",
    "CHECKS",
    "ExecutionStats",
    "LocalBackend",
    "RemoteBackend",
    "resolve_backend",
    "FIGURES",
    "FigureResult",
    "GridResult",
    "MaxUtilizationCollector",
    "OVERLOAD_THRESHOLD",
    "PAPER_DEFAULTS",
    "PAPER_DURATION",
    "ParallelExecutor",
    "ReplicationSet",
    "Series",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "ValidationCheck",
    "ValidationReport",
    "compare_policies",
    "config_from_dict",
    "config_to_dict",
    "default_duration",
    "figure_from_dict",
    "figure_to_dict",
    "load_json",
    "result_from_dict",
    "result_to_dict",
    "save_json",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "figure_to_csv",
    "format_table",
    "render_comparison",
    "render_execution",
    "render_figure",
    "render_result",
    "resolve_workers",
    "resume_run",
    "run_cells",
    "run_checkpointed_cell",
    "run_grid",
    "run_replications",
    "run_simulation",
    "run_with_checkpoints",
    "sweep",
    "take_checkpoint",
    "verify_checkpoint",
    "validate_run",
    "table1",
    "table2",
]
