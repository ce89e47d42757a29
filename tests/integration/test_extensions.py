"""Integration tests for the extension features.

Client-side address caching, time-varying domain popularity, the
sliding-window estimator, response-time metrics, utilization series
retention, and the analysis toolbox on real simulation output.
"""

import math
import statistics

import pytest

from repro.analysis import (
    jain_fairness_index,
    max_series,
    overload_episodes,
    paired_comparison,
    server_series,
    stochastically_dominates,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.metrics import OVERLOAD_THRESHOLD
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.rng import derive_seed
from repro.sim.stats import t_critical

QUICK = dict(duration=900.0, seed=9)


class TestClientAddressCaching:
    def test_cache_hits_counted(self):
        simulation = Simulation(
            SimulationConfig(policy="RR", client_address_caching=True, **QUICK)
        )
        simulation.run()
        assert simulation.population.client_cache_hits > 0

    def test_caching_reduces_ns_lookups(self):
        plain = Simulation(SimulationConfig(policy="RR", **QUICK))
        plain.run()
        cached = Simulation(
            SimulationConfig(policy="RR", client_address_caching=True, **QUICK)
        )
        cached.run()
        lookups = lambda sim: (
            sim.resolution_chain.cache_answers
            + sim.resolution_chain.authoritative_answers
        )
        assert lookups(cached) < lookups(plain)

    def test_disabled_by_default(self):
        simulation = Simulation(SimulationConfig(policy="RR", **QUICK))
        simulation.run()
        assert simulation.population.client_cache_hits == 0


class TestWorkloadDynamics:
    def test_rotation_config_validated(self):
        with pytest.raises(Exception):
            SimulationConfig(hot_rotation_interval=100.0, hot_rotation_count=1)
        with pytest.raises(Exception):
            SimulationConfig(
                hot_rotation_interval=100.0, hot_rotation_count=50
            )

    def test_rotation_spreads_domain_traffic(self):
        config = SimulationConfig(
            policy="RR",
            hot_rotation_interval=120.0,
            hot_rotation_count=5,
            trace=True,
            **QUICK,
        )
        result = run_simulation(config)
        # Sessions tagged with the hottest nominal domain appear under
        # several rotating identities over time.
        domains_used = {
            record.payload["domain"]
            for record in result.trace
            if record.category == "session"
        }
        assert {0, 1, 2, 3, 4} <= domains_used

    def test_rotation_hurts_stale_oracle(self):
        base = SimulationConfig(
            policy="DRR2-TTL/S_K",
            heterogeneity=35,
            duration=2400.0,
            seed=9,
            hot_rotation_interval=180.0,
        )
        # A rotating workload is *harder*; the run must still behave.
        result = run_simulation(base)
        assert 0.0 <= result.prob_max_below(0.98) <= 1.0
        assert result.total_hits > 0


class TestWindowEstimator:
    def test_window_estimator_runs_end_to_end(self):
        result = run_simulation(
            SimulationConfig(policy="PRR2-TTL/K", estimator="window", **QUICK)
        )
        assert result.total_hits > 0
        assert 0.0 <= result.prob_max_below(0.98) <= 1.0

    def test_window_estimator_wired(self):
        from repro.core.estimator import SlidingWindowEstimator

        simulation = Simulation(
            SimulationConfig(policy="PRR2-TTL/K", estimator="window", **QUICK)
        )
        assert isinstance(simulation.estimator, SlidingWindowEstimator)
        simulation.run()
        assert simulation.estimator.collections > 0


class TestResponseTimes:
    def test_response_time_metrics_populated(self):
        result = run_simulation(SimulationConfig(policy="RR", **QUICK))
        assert result.mean_page_response_time > 0.0
        assert result.max_page_response_time >= result.mean_page_response_time
        assert "mean_page_response_time" in result.summary()

    def test_better_policy_lower_response_time(self):
        rr = run_simulation(
            SimulationConfig(policy="RR", duration=2400.0, seed=9)
        )
        adaptive = run_simulation(
            SimulationConfig(policy="DRR2-TTL/S_K", duration=2400.0, seed=9)
        )
        assert adaptive.mean_page_response_time < rr.mean_page_response_time


class TestUtilizationSeries:
    def test_series_absent_by_default(self):
        result = run_simulation(SimulationConfig(policy="RR", **QUICK))
        assert result.utilization_series is None

    def test_series_retained_when_requested(self):
        result = run_simulation(
            SimulationConfig(
                policy="RR", keep_utilization_series=True, **QUICK
            )
        )
        assert result.utilization_series is not None
        assert len(result.utilization_series) == len(
            result.max_utilization_samples
        )
        now, vector = result.utilization_series[0]
        assert len(vector) == 7

    def test_analysis_tools_consume_series(self):
        result = run_simulation(
            SimulationConfig(
                policy="RR", keep_utilization_series=True, **QUICK
            )
        )
        timeline = max_series(result)
        assert [v for _, v in timeline] == result.max_utilization_samples
        per_server = server_series(result, 0)
        assert len(per_server) == len(timeline)
        episodes = overload_episodes(result, threshold=0.98)
        overloaded_intervals = sum(count for _, _, count in episodes)
        expected = sum(
            1 for v in result.max_utilization_samples if v >= 0.98
        )
        assert overloaded_intervals == expected

    def test_fairness_on_mean_utilizations(self):
        result = run_simulation(SimulationConfig(policy="IDEAL", **QUICK))
        index = jain_fairness_index(result.mean_utilization_per_server)
        assert index > 0.9  # the ideal policy balances well


class TestComparisons:
    def test_paired_comparison_detects_clear_gap(self):
        base = SimulationConfig(policy="RR", duration=1200.0, seed=5)
        comparison = paired_comparison(
            base, "DRR2-TTL/S_K", "RR", replications=3
        )
        assert comparison.mean_difference > 0
        assert comparison.better == "DRR2-TTL/S_K"
        assert "DRR2-TTL/S_K" in str(comparison)
        # The one batch (each seed's pair a workload cohort) gives the
        # values of per-cell runs.
        seeds = [derive_seed(5, f"paired:{index}") for index in range(3)]
        for policy, values in (
            ("DRR2-TTL/S_K", comparison.values_a),
            ("RR", comparison.values_b),
        ):
            assert values == tuple(
                run_simulation(base.replace(policy=policy, seed=seed))
                .prob_max_below(OVERLOAD_THRESHOLD)
                for seed in seeds
            )

    def test_paired_half_width_is_student_t(self):
        values = [0.91, 0.70, 0.83, 0.78, 0.95, 0.71, 0.86, 0.80]
        metric_values = iter(values)
        comparison = paired_comparison(
            SimulationConfig(policy="RR", duration=300.0, seed=5),
            "DAL", "RR", replications=4,
            metric=lambda result: next(metric_values),
        )
        differences = [a - b for a, b in zip(values[0::2], values[1::2])]
        n = len(differences)
        expected = t_critical(0.95, n - 1) * statistics.stdev(differences) / math.sqrt(n)
        assert comparison.mean_difference == pytest.approx(statistics.fmean(differences))
        assert comparison.half_width == pytest.approx(expected, rel=1e-12)

    def test_stochastic_dominance_adaptive_over_rr(self):
        config = SimulationConfig(policy="RR", duration=2400.0, seed=5)
        rr = run_simulation(config)
        adaptive = run_simulation(config.replace(policy="DRR2-TTL/S_K"))
        assert stochastically_dominates(adaptive, rr, tolerance=0.03)
        assert not stochastically_dominates(rr, adaptive, tolerance=0.03)
