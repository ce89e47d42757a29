"""Property-based tests for the statistics module."""

import math
import statistics
from statistics import NormalDist

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.sim.stats import EmpiricalCdf, RunningStats, batch_means_ci, t_critical

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(floats, min_size=1, max_size=300)


class TestRunningStats:
    @given(samples)
    def test_mean_matches_statistics_module(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert math.isclose(
            stats.mean, statistics.fmean(values), rel_tol=1e-9, abs_tol=1e-6
        )

    @given(st.lists(floats, min_size=2, max_size=300))
    def test_variance_matches_statistics_module(self, values):
        stats = RunningStats()
        stats.extend(values)
        expected = statistics.variance(values)
        assert math.isclose(
            stats.variance, expected, rel_tol=1e-6, abs_tol=1e-6
        )

    @given(samples)
    def test_extremes(self, values):
        stats = RunningStats()
        stats.extend(values)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    @given(samples, samples)
    def test_order_independence_of_mean(self, first, second):
        forward = RunningStats()
        forward.extend(first + second)
        backward = RunningStats()
        backward.extend(second + first)
        assert math.isclose(
            forward.mean, backward.mean, rel_tol=1e-9, abs_tol=1e-6
        )


class TestEmpiricalCdf:
    @given(samples)
    def test_cdf_monotone_nondecreasing(self, values):
        cdf = EmpiricalCdf(values)
        grid = sorted({min(values) - 1, *values, max(values) + 1})
        probabilities = [cdf.probability_below(x) for x in grid]
        assert probabilities == sorted(probabilities)

    @given(samples)
    def test_cdf_bounds(self, values):
        cdf = EmpiricalCdf(values)
        assert cdf.probability_below(min(values)) == 0.0
        assert cdf.probability_below(max(values) + 1.0) == 1.0

    @given(samples, floats)
    def test_probability_is_fraction_of_samples(self, values, threshold):
        cdf = EmpiricalCdf(values)
        expected = sum(1 for v in values if v < threshold) / len(values)
        assert cdf.probability_below(threshold) == expected

    @given(samples)
    def test_quantiles_are_samples(self, values):
        cdf = EmpiricalCdf(values)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert cdf.quantile(q) in values


class TestBatchMeans:
    @given(st.lists(floats, min_size=1, max_size=500))
    def test_mean_is_arithmetic_mean(self, values):
        mean, _ = batch_means_ci(values)
        assert math.isclose(
            mean, sum(values) / len(values), rel_tol=1e-9, abs_tol=1e-6
        )

    @given(st.lists(floats, min_size=40, max_size=500))
    def test_halfwidth_nonnegative(self, values):
        _, half = batch_means_ci(values)
        assert half >= 0.0

    @given(floats, st.integers(min_value=40, max_value=200))
    def test_constant_series_has_zero_halfwidth(self, value, count):
        _, half = batch_means_ci([value] * count)
        assert half == 0.0 or half < 1e-6 * max(1.0, abs(value))


confidences = st.floats(min_value=0.01, max_value=0.999)
dofs = st.integers(min_value=1, max_value=10**6)


class TestTCritical:
    """Shape of the Student-t critical value (relative slack 1e-11, the accuracy bar)."""

    @given(confidences, confidences, dofs)
    def test_rises_with_confidence(self, first, second, dof):
        low, high = sorted((first, second))
        assert t_critical(low, dof) <= t_critical(high, dof) * (1 + 1e-11)

    @given(confidences, dofs, dofs)
    def test_falls_with_dof(self, confidence, first, second):
        few, many = sorted((first, second))
        assert t_critical(confidence, many) <= t_critical(confidence, few) * (1 + 1e-11)

    @given(confidences, st.integers(min_value=1000, max_value=10**9))
    def test_approaches_normal_quantile(self, confidence, dof):
        # t - z = z (1 + z^2) / (4 dof) + O(dof^-2): above z, and within
        # twice the first-order gap once dof is large.
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        gap = t_critical(confidence, dof) - z
        assert -1e-11 * z <= gap <= z * (1.0 + z * z) / (2.0 * dof)
