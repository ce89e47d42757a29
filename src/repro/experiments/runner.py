"""Replication and sweep drivers on top of single simulations.

The paper reports five-hour runs with 95% confidence intervals within 4%
of the mean. :func:`run_replications` reproduces that discipline across
independently seeded runs; :func:`sweep` drives the sensitivity studies
(heterogeneity, minimum TTL, estimation error, domain count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.rng import derive_seed
from ..sim.stats import EmpiricalCdf, t_interval
from .config import SimulationConfig
from .executor import ExecutionStats, ParallelExecutor
from .metrics import OVERLOAD_THRESHOLD, SimulationResult
from .simulation import run_simulation


def _executor(
    workers: int, executor: Optional[ParallelExecutor]
) -> ParallelExecutor:
    """The executor to use: the caller's, or a fresh one for ``workers``."""
    if executor is not None:
        return executor
    return ParallelExecutor(workers=workers)


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
    configs = [
        config.replace(seed=derive_seed(config.seed, f"replication:{index}"))
        for index in range(replications)
    ]
    runner = _executor(workers, executor)
    results = runner.run_simulations(
        configs,
        labels=[f"replication {index}" for index in range(replications)],
    )
    return ReplicationSet(
        config=config, results=results, execution=runner.last_stats
    )


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
        ``workers`` (its ``last_stats`` then describes this sweep).

    Returns
    -------
    List of ``(value, metric_value, result)`` triples in input order.
    """
    if metric is None:
        metric = lambda result: result.prob_max_below(OVERLOAD_THRESHOLD)
    configs = [base.replace(**{parameter: value}) for value in values]
    results = _executor(workers, executor).run_simulations(
        configs, labels=[f"{parameter}={value}" for value in values]
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
    configs = [base.replace(policy=policy) for policy in policies]
    results = _executor(workers, executor).run_simulations(
        configs, labels=list(policies)
    )
    return dict(zip(policies, results))
