"""The multi-cell experiment driver and its thin wrappers.

:func:`run_cells` is the one driver of several simulations: a base
config plus an ordered list of field assignments becomes one labelled
:meth:`~repro.experiments.executor.ParallelExecutor.run_simulations`
batch. Every multi-cell entry point calls it:
:func:`~repro.experiments.grid.run_grid`, :func:`sweep`,
:func:`compare_policies`, :func:`run_replications`,
:func:`~repro.analysis.comparison.paired_comparison` and the paper
figures (:mod:`repro.experiments.figures`).

The paper reports five-hour runs with 95% confidence intervals within 4%
of the mean. :func:`run_replications` reproduces that discipline across
independently seeded runs; :func:`sweep` drives the sensitivity studies
(heterogeneity, minimum TTL, estimation error, domain count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.rng import derive_seed
from ..sim.stats import EmpiricalCdf, t_interval
from .config import SimulationConfig
from .executor import ExecutionStats, ParallelExecutor
from .metrics import OVERLOAD_THRESHOLD, SimulationResult


def run_cells(
    base: SimulationConfig,
    assignments: Sequence[Mapping[str, object]],
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> Tuple[List[SimulationResult], ExecutionStats]:
    """Run ``base.replace(**assignment)`` for each assignment as one batch.

    Each cell is labelled ``field=value,...`` in its assignment's order.
    All cells go to one :meth:`ParallelExecutor.run_simulations` call on
    ``executor`` (or, without one, on a fresh executor of ``workers``
    processes), so the batch has one checkpoint ledger, one remote
    session and one workload cohort per shared workload. Returns the
    results in assignment order and the batch's :class:`ExecutionStats`.
    Passing both an ``executor`` and ``workers`` other than 1 raises
    :class:`~repro.errors.ConfigurationError`: the executor fixes its
    own worker count.
    """
    if executor is not None and workers != 1:
        raise ConfigurationError(
            f"pass either executor= or workers=, not both "
            f"(workers={workers!r} with an executor of "
            f"{executor.workers!r} worker(s))"
        )
    runner = executor if executor is not None else ParallelExecutor(workers=workers)
    results = runner.run_simulations(
        [base.replace(**assignment) for assignment in assignments],
        labels=[
            ",".join(f"{name}={value}" for name, value in assignment.items())
            for assignment in assignments
        ],
    )
    return results, runner.last_stats


@dataclass
class ReplicationSet:
    """Results of several independently seeded runs of one config."""

    config: SimulationConfig
    results: List[SimulationResult]
    #: Timing of the batch that produced :attr:`results` (set by
    #: :func:`run_replications`).
    execution: Optional[ExecutionStats] = None

    @property
    def replication_count(self) -> int:
        return len(self.results)

    def pooled_cdf(self) -> EmpiricalCdf:
        """CDF over the union of all replications' samples."""
        samples: List[float] = []
        for result in self.results:
            samples.extend(result.max_utilization_samples)
        return EmpiricalCdf(samples)

    def prob_max_below(self, threshold: float = OVERLOAD_THRESHOLD) -> float:
        """Pooled ``Prob(MaxUtilization < threshold)``."""
        return self.pooled_cdf().probability_below(threshold)

    def prob_max_below_ci(
        self, threshold: float = OVERLOAD_THRESHOLD, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Across-replication mean and CI half-width of the probability.

        A Student-t interval with ``n - 1`` degrees of freedom over the
        ``n`` replications (:func:`repro.sim.stats.t_interval`); the
        half-width is 0 for a single replication.
        """
        values = [r.prob_max_below(threshold) for r in self.results]
        if len(values) == 1:
            return values[0], 0.0
        return t_interval(values, confidence)


def run_replications(
    config: SimulationConfig,
    replications: int = 3,
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> ReplicationSet:
    """Run ``config`` under ``replications`` independent seeds.

    Each replication's seed is derived up front from ``config.seed``, so
    the result set is identical for any ``workers`` count.
    """
    if replications < 1:
        raise ConfigurationError(f"replications must be >= 1, got {replications!r}")
    results, stats = run_cells(
        config,
        [
            {"seed": derive_seed(config.seed, f"replication:{index}")}
            for index in range(replications)
        ],
        workers,
        executor,
    )
    return ReplicationSet(config=config, results=results, execution=stats)


def sweep(
    base: SimulationConfig,
    parameter: str,
    values: Sequence,
    metric: Optional[Callable[[SimulationResult], float]] = None,
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> List[Tuple[object, float, SimulationResult]]:
    """Run ``base`` once per value of ``parameter``.

    Parameters
    ----------
    base:
        Template configuration.
    parameter:
        Name of the :class:`SimulationConfig` field to vary.
    values:
        Values to assign to the field.
    metric:
        Scalar extracted from each result; defaults to the paper's
        ``Prob(MaxUtilization < 0.98)``. Applied in the calling process,
        so it may be any callable (lambdas included) under any
        ``workers`` count.
    workers:
        Worker processes for the sweep's cells (1 = serial).
    executor:
        A pre-built :class:`ParallelExecutor` to use instead of
        ``workers`` (its ``last_stats`` then describes this sweep);
        combining it with ``workers`` other than 1 raises
        :class:`~repro.errors.ConfigurationError`.

    Returns
    -------
    List of ``(value, metric_value, result)`` triples in input order.
    """
    if metric is None:
        metric = lambda result: result.prob_max_below(OVERLOAD_THRESHOLD)
    results, _ = run_cells(
        base, [{parameter: value} for value in values], workers, executor
    )
    return [
        (value, metric(result), result)
        for value, result in zip(values, results)
    ]


def compare_policies(
    base: SimulationConfig,
    policies: Sequence[str],
    workers: int = 1,
    executor: Optional[ParallelExecutor] = None,
) -> Dict[str, SimulationResult]:
    """Run the same scenario under each policy (common random seed)."""
    results, _ = run_cells(
        base, [{"policy": policy} for policy in policies], workers, executor
    )
    return dict(zip(policies, results))
