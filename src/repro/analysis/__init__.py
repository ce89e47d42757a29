"""Output analysis: fairness indices, warmup detection, comparisons.

Complements the paper's max-utilization metric with the standard
simulation-methodology toolbox:

* :mod:`repro.analysis.fairness` — Jain index, CoV, peak-to-mean;
* :mod:`repro.analysis.warmup` — MSER initial-transient truncation;
* :mod:`repro.analysis.comparison` — common-random-numbers paired
  intervals and stochastic-dominance checks between policies;
* :mod:`repro.analysis.timeseries` — per-server timelines, overload
  episodes, sparklines (requires ``keep_utilization_series=True``).
"""

from .comparison import (
    PairedComparison,
    paired_comparison,
    stochastically_dominates,
)
from .fairness import (
    coefficient_of_variation,
    imbalance_spread,
    jain_fairness_index,
    load_balance_report,
    max_mean_ratio,
)
from .timeseries import (
    fairness_over_time,
    max_series,
    overload_episodes,
    server_series,
    sparkline,
)
from .warmup import mser_cutoff, mser_statistic, truncate_warmup

__all__ = [
    "PairedComparison",
    "coefficient_of_variation",
    "fairness_over_time",
    "imbalance_spread",
    "jain_fairness_index",
    "load_balance_report",
    "max_mean_ratio",
    "max_series",
    "mser_cutoff",
    "mser_statistic",
    "overload_episodes",
    "paired_comparison",
    "server_series",
    "sparkline",
    "stochastically_dominates",
    "truncate_warmup",
]
