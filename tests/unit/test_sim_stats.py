"""Unit tests for repro.sim.stats."""

import math
import random
import statistics

import pytest

from repro.errors import SimulationError
from repro.sim.stats import (
    EmpiricalCdf,
    RunningStats,
    TimeWeightedStats,
    batch_means_ci,
    relative_ci_width,
    t_critical,
    t_interval,
)


class TestRunningStats:
    def test_empty_mean_raises(self):
        with pytest.raises(SimulationError):
            RunningStats().mean

    def test_single_value(self):
        stats = RunningStats()
        stats.add(3.0)
        assert stats.mean == 3.0
        assert stats.minimum == 3.0
        assert stats.maximum == 3.0

    def test_variance_needs_two_values(self):
        stats = RunningStats()
        stats.add(1.0)
        with pytest.raises(SimulationError):
            stats.variance

    def test_matches_naive_computation(self):
        rng = random.Random(5)
        values = [rng.uniform(-10, 10) for _ in range(500)]
        stats = RunningStats()
        stats.extend(values)
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean)
        assert stats.variance == pytest.approx(variance)
        assert stats.stddev == pytest.approx(math.sqrt(variance))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_count_tracks_additions(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0])
        assert stats.count == 3


class TestTimeWeightedStats:
    def test_constant_signal(self):
        stats = TimeWeightedStats(initial_value=2.0)
        assert stats.mean(10.0) == 2.0

    def test_step_signal(self):
        stats = TimeWeightedStats()
        stats.update(5.0, 1.0)  # 0 for [0, 5), 1 for [5, 10)
        assert stats.mean(10.0) == pytest.approx(0.5)

    def test_multiple_steps(self):
        stats = TimeWeightedStats()
        stats.update(2.0, 4.0)
        stats.update(6.0, 1.0)
        # areas: 0*2 + 4*4 + 1*2 = 18 over 8
        assert stats.mean(8.0) == pytest.approx(18.0 / 8.0)

    def test_maximum_tracked(self):
        stats = TimeWeightedStats()
        stats.update(1.0, 7.0)
        stats.update(2.0, 3.0)
        assert stats.maximum == 7.0

    def test_time_going_backwards_rejected(self):
        stats = TimeWeightedStats()
        stats.update(5.0, 1.0)
        with pytest.raises(SimulationError):
            stats.update(4.0, 2.0)

    def test_mean_at_start_is_current_value(self):
        stats = TimeWeightedStats(initial_time=3.0, initial_value=9.0)
        assert stats.mean(3.0) == 9.0


class TestEmpiricalCdf:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            EmpiricalCdf([])

    def test_probability_below(self):
        cdf = EmpiricalCdf([0.1, 0.5, 0.9, 1.0])
        assert cdf.probability_below(0.5) == 0.25  # strictly below
        assert cdf.probability_below(0.95) == 0.75
        assert cdf.probability_below(2.0) == 1.0
        assert cdf.probability_below(0.0) == 0.0

    def test_quantile(self):
        cdf = EmpiricalCdf(list(range(100)))
        assert cdf.quantile(0.0) == 0
        assert cdf.quantile(0.5) == 50
        assert cdf.quantile(1.0) == 99

    def test_quantile_out_of_range_rejected(self):
        cdf = EmpiricalCdf([1.0])
        with pytest.raises(SimulationError):
            cdf.quantile(1.5)

    def test_evaluate_returns_monotone_curve(self):
        rng = random.Random(3)
        cdf = EmpiricalCdf([rng.random() for _ in range(200)])
        grid = [i / 20 for i in range(21)]
        values = [p for _, p in cdf.evaluate(grid)]
        assert values == sorted(values)

    def test_sample_count(self):
        assert EmpiricalCdf([1, 2, 3]).sample_count == 3


class TestBatchMeansCi:
    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            batch_means_ci([])

    def test_short_series_returns_zero_halfwidth(self):
        mean, half = batch_means_ci([1.0, 2.0, 3.0], batches=20)
        assert mean == 2.0
        assert half == 0.0

    def test_constant_series_zero_width(self):
        mean, half = batch_means_ci([5.0] * 200)
        assert mean == 5.0
        assert half == 0.0

    def test_iid_series_interval_covers_true_mean(self):
        rng = random.Random(11)
        samples = [rng.gauss(10.0, 2.0) for _ in range(2000)]
        mean, half = batch_means_ci(samples)
        assert abs(mean - 10.0) < half + 0.3
        assert half > 0

    def test_wider_confidence_wider_interval(self):
        rng = random.Random(11)
        samples = [rng.gauss(0.0, 1.0) for _ in range(1000)]
        _, half95 = batch_means_ci(samples, confidence=0.95)
        _, half99 = batch_means_ci(samples, confidence=0.99)
        assert half99 > half95

    def test_uses_student_t_over_batch_means(self):
        rng = random.Random(11)
        samples = [rng.gauss(0.0, 1.0) for _ in range(200)]
        means = [statistics.fmean(samples[i : i + 10]) for i in range(0, 200, 10)]
        _, half = batch_means_ci(samples)
        expected = t_critical(0.95, 19) * statistics.stdev(means) / math.sqrt(20)
        assert half == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("batches", [1, 0, -3])
    def test_fewer_than_two_batches_rejected(self, batches):
        with pytest.raises(SimulationError, match="two batches"):
            batch_means_ci([float(i) for i in range(200)], batches=batches)

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_confidence_outside_open_unit_interval_rejected(self, confidence):
        with pytest.raises(SimulationError, match="confidence"):
            batch_means_ci([float(i) for i in range(200)], confidence=confidence)

    def test_relative_ci_width(self):
        rng = random.Random(11)
        samples = [rng.gauss(10.0, 1.0) for _ in range(1000)]
        rel = relative_ci_width(samples)
        assert rel is not None
        assert 0 < rel < 0.05  # well under the paper's 4%

    def test_relative_ci_width_zero_mean(self):
        assert relative_ci_width([0.0] * 100) is None


class TestTCritical:
    def test_paper_interval_value(self):
        # 20 batches at 95%: the paper's batch-means setting.
        assert t_critical(0.95, 19) == pytest.approx(2.0930240544083087, rel=1e-12)

    @pytest.mark.parametrize(
        "confidence, dof, expected",
        [
            (0.95, 1, 12.706204736174694),
            (0.99, 1, 63.656741162871526),
            (0.95, 2, 4.302652729749462),
            (0.90, 2, 2.9199855803537242),
            (0.95, 4, 2.7764451051977934),
            (0.99, 10, 3.16927267261695),
            (0.95, 30, 2.0422724563012378),
        ],
    )
    def test_table_values(self, confidence, dof, expected):
        assert t_critical(confidence, dof) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dof", [0, -1])
    def test_dof_below_one_rejected(self, dof):
        with pytest.raises(SimulationError, match="degrees of freedom"):
            t_critical(0.95, dof)

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_confidence_outside_open_unit_interval_rejected(self, confidence):
        with pytest.raises(SimulationError, match="confidence"):
            t_critical(confidence, 10)

    def test_agrees_with_scipy(self):
        student_t = pytest.importorskip("scipy.stats").t
        dofs = list(range(1, 1001)) + [2000, 5000, 10**4, 10**5]
        worst = 0.0
        for confidence in (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999):
            for dof in dofs:
                reference = float(student_t.ppf(0.5 + confidence / 2.0, dof))
                error = abs(t_critical(confidence, dof) - reference) / reference
                worst = max(worst, error)
        assert worst <= 1e-10


class TestTInterval:
    def test_half_width_formula(self):
        values = [0.31, 0.52, 0.47, 0.66, 0.12, 0.58]
        n = len(values)
        mean, half = t_interval(values)
        assert mean == pytest.approx(statistics.fmean(values), rel=1e-15)
        expected = t_critical(0.95, n - 1) * statistics.stdev(values) / math.sqrt(n)
        assert half == pytest.approx(expected, rel=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(SimulationError):
            t_interval([1.0])
