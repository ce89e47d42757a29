"""Integration tests for the replication/sweep runner."""

import math
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import (
    ReplicationSet,
    run_replications,
    sweep,
)
from repro.sim.stats import t_critical

BASE = SimulationConfig(policy="RR", duration=600.0, seed=4)


class TestReplications:
    def test_runs_requested_count(self):
        replication_set = run_replications(BASE, replications=3)
        assert replication_set.replication_count == 3

    def test_replications_use_distinct_seeds(self):
        replication_set = run_replications(BASE, replications=3)
        seeds = {result.config.seed for result in replication_set.results}
        assert len(seeds) == 3

    def test_replications_deterministic(self):
        first = run_replications(BASE, replications=2)
        second = run_replications(BASE, replications=2)
        assert [r.total_hits for r in first.results] == [
            r.total_hits for r in second.results
        ]

    def test_pooled_cdf_pools_samples(self):
        replication_set = run_replications(BASE, replications=2)
        pooled = replication_set.pooled_cdf()
        assert pooled.sample_count == sum(
            len(r.max_utilization_samples) for r in replication_set.results
        )

    def test_prob_max_below_ci(self):
        replication_set = run_replications(BASE, replications=3)
        mean, half = replication_set.prob_max_below_ci(0.9)
        assert 0.0 <= mean <= 1.0
        assert half >= 0.0

    @pytest.mark.parametrize("confidence", [0.8, 0.95])
    def test_prob_max_below_ci_is_student_t(self, confidence):
        config = BASE.replace(policy="DRR2-TTL/S_K")
        replication_set = run_replications(config, replications=3)
        values = [r.prob_max_below(0.9) for r in replication_set.results]
        assert len(set(values)) > 1
        mean, half = replication_set.prob_max_below_ci(0.9, confidence)
        expected = t_critical(confidence, 2) * statistics.stdev(values) / math.sqrt(3)
        assert mean == pytest.approx(statistics.fmean(values))
        assert half == pytest.approx(expected, rel=1e-12)

    def test_single_replication_zero_halfwidth(self):
        replication_set = run_replications(BASE, replications=1)
        _, half = replication_set.prob_max_below_ci()
        assert half == 0.0

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigurationError):
            run_replications(BASE, replications=0)


class TestSweep:
    def test_sweep_over_heterogeneity(self):
        rows = sweep(BASE, "heterogeneity", [20, 50])
        assert [value for value, _, _ in rows] == [20, 50]
        for _, metric_value, result in rows:
            assert 0.0 <= metric_value <= 1.0
            assert result.total_hits > 0

    def test_sweep_custom_metric(self):
        rows = sweep(
            BASE, "heterogeneity", [20],
            metric=lambda result: result.mean_max_utilization,
        )
        assert rows[0][1] == pytest.approx(
            rows[0][2].mean_max_utilization
        )

    def test_sweep_applies_parameter(self):
        rows = sweep(BASE, "min_accepted_ttl", [0.0, 120.0])
        assert rows[0][2].config.min_accepted_ttl == 0.0
        assert rows[1][2].config.min_accepted_ttl == 120.0
