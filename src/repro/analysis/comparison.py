"""Statistical comparison of scheduling policies.

Two policies are best compared under *common random numbers* (same seed,
same workload trajectory) and then across several independent seed pairs.
:func:`paired_comparison` forms the paired-difference confidence interval
of any scalar metric; :func:`stochastically_dominates` checks first-order
stochastic dominance of the max-utilization distributions (policy A
dominates B when its CDF lies above B's everywhere — a stronger statement
than any single-threshold comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..errors import ConfigurationError
from ..experiments.config import SimulationConfig
from ..experiments.metrics import OVERLOAD_THRESHOLD, SimulationResult
from ..experiments.runner import run_cells
from ..sim.rng import derive_seed
from ..sim.stats import t_interval

Metric = Callable[[SimulationResult], float]


def _default_metric(result: SimulationResult) -> float:
    return result.prob_max_below(OVERLOAD_THRESHOLD)


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a common-random-numbers policy comparison."""

    policy_a: str
    policy_b: str
    #: Per-seed metric values.
    values_a: tuple
    values_b: tuple
    #: Mean of (a - b) differences.
    mean_difference: float
    #: 95% Student-t half-width of the mean difference (n - 1 degrees
    #: of freedom over the n replications).
    half_width: float

    @property
    def significant(self) -> bool:
        """Whether the interval for (a - b) excludes zero."""
        return abs(self.mean_difference) > self.half_width

    @property
    def better(self) -> Optional[str]:
        """The significantly better policy, or ``None`` if inconclusive."""
        if not self.significant:
            return None
        return self.policy_a if self.mean_difference > 0 else self.policy_b

    def __str__(self) -> str:
        verdict = self.better or "inconclusive"
        return (
            f"{self.policy_a} - {self.policy_b} = "
            f"{self.mean_difference:+.3f} +/- {self.half_width:.3f} "
            f"({verdict})"
        )


def paired_comparison(
    base: SimulationConfig,
    policy_a: str,
    policy_b: str,
    replications: int = 5,
    metric: Optional[Metric] = None,
) -> PairedComparison:
    """Compare two policies with common random numbers per replication.

    Each replication runs both policies under the same derived seed, so
    the per-seed difference cancels workload noise; the returned interval
    is over the paired differences. All ``2 * replications`` cells run
    as one serial batch (:func:`~repro.experiments.runner.run_cells`),
    so each seed's pair shares one workload cohort.
    """
    if replications < 2:
        raise ConfigurationError(
            f"replications must be >= 2, got {replications!r}"
        )
    metric = metric or _default_metric
    results, _ = run_cells(
        base,
        [
            {"policy": policy, "seed": derive_seed(base.seed, f"paired:{index}")}
            for index in range(replications)
            for policy in (policy_a, policy_b)
        ],
    )
    values = [metric(result) for result in results]
    values_a, values_b = values[0::2], values[1::2]
    mean, half = t_interval([a - b for a, b in zip(values_a, values_b)])
    return PairedComparison(
        policy_a=policy_a,
        policy_b=policy_b,
        values_a=tuple(values_a),
        values_b=tuple(values_b),
        mean_difference=mean,
        half_width=half,
    )


def stochastically_dominates(
    a: SimulationResult,
    b: SimulationResult,
    grid: Optional[Sequence[float]] = None,
    tolerance: float = 0.0,
) -> bool:
    """First-order stochastic dominance of ``a`` over ``b``.

    ``a`` dominates when ``P_a(maxU < x) >= P_b(maxU < x)`` for every
    grid point ``x`` (up to ``tolerance``) — i.e. ``a``'s whole
    cumulative-frequency curve (Figs. 1-2) lies on or above ``b``'s.
    """
    if grid is None:
        grid = [0.5 + 0.02 * i for i in range(26)]
    cdf_a, cdf_b = a.cdf(), b.cdf()
    return all(
        cdf_a.probability_below(x) >= cdf_b.probability_below(x) - tolerance
        for x in grid
    )
