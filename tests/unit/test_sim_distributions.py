"""Unit tests for repro.sim.distributions."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.distributions import (
    Constant,
    DiscreteUniform,
    Empirical,
    Exponential,
    Geometric,
    Uniform,
    Zipf,
    zipf_weights,
)


@pytest.fixture
def rng():
    return random.Random(99)


class TestConstant:
    def test_sample_is_value(self, rng):
        assert Constant(4.5).sample(rng) == 4.5

    def test_mean(self):
        assert Constant(4.5).mean == 4.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ConfigurationError):
            Constant(value)


class TestExponential:
    def test_positive_mean_required(self):
        with pytest.raises(ConfigurationError):
            Exponential(0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ConfigurationError):
            Exponential(mean)

    def test_sample_mean_approximates_mean(self, rng):
        dist = Exponential(15.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(15.0, rel=0.05)

    def test_samples_positive(self, rng):
        dist = Exponential(1.0)
        assert all(dist.sample(rng) >= 0 for _ in range(1000))

    def test_mean_property(self):
        assert Exponential(15.0).mean == 15.0


class TestUniform:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Uniform(2.0, 1.0)

    @pytest.mark.parametrize(
        "low, high", [(0.0, math.nan), (math.nan, 1.0), (-math.inf, 0.0)]
    )
    def test_non_finite_bounds_rejected(self, low, high):
        with pytest.raises(ConfigurationError):
            Uniform(low, high)

    def test_samples_within_bounds(self, rng):
        dist = Uniform(3.0, 7.0)
        assert all(3.0 <= dist.sample(rng) <= 7.0 for _ in range(1000))

    def test_mean(self):
        assert Uniform(3.0, 7.0).mean == 5.0


class TestDiscreteUniform:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            DiscreteUniform(15, 5)

    @pytest.mark.parametrize(
        "low, high", [(1, math.inf), (1, math.nan), (-math.inf, 1)]
    )
    def test_non_finite_bounds_rejected(self, low, high):
        with pytest.raises(ConfigurationError):
            DiscreteUniform(low, high)

    def test_samples_are_integers_in_range(self, rng):
        dist = DiscreteUniform(5, 15)
        for _ in range(1000):
            value = dist.sample(rng)
            assert isinstance(value, int)
            assert 5 <= value <= 15

    def test_all_values_reachable(self, rng):
        dist = DiscreteUniform(5, 15)
        seen = {dist.sample(rng) for _ in range(5000)}
        assert seen == set(range(5, 16))

    def test_mean_matches_paper_hits_per_page(self):
        assert DiscreteUniform(5, 15).mean == 10.0


class TestGeometric:
    def test_mean_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Geometric(0.5)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ConfigurationError):
            Geometric(mean)

    def test_samples_at_least_one(self, rng):
        dist = Geometric(20.0)
        assert all(dist.sample(rng) >= 1 for _ in range(2000))

    def test_sample_mean_approximates_mean(self, rng):
        dist = Geometric(20.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(20.0, rel=0.05)

    def test_degenerate_mean_one(self, rng):
        dist = Geometric(1.0)
        assert all(dist.sample(rng) == 1 for _ in range(100))


class TestEmpirical:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Empirical([1, 2], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Empirical([], [])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Empirical([1, 2], [1.0, -1.0])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            Empirical([1, 2], [0.0, 0.0])

    def test_single_value_always_sampled(self, rng):
        dist = Empirical(["only"], [3.0])
        assert all(dist.sample(rng) == "only" for _ in range(50))

    def test_frequencies_follow_weights(self, rng):
        dist = Empirical([0, 1], [1.0, 3.0])
        draws = [dist.sample(rng) for _ in range(20000)]
        assert draws.count(1) / len(draws) == pytest.approx(0.75, abs=0.02)

    def test_mean(self):
        assert Empirical([0, 10], [1.0, 1.0]).mean == 5.0


class TestZipfWeights:
    def test_sum_to_one(self):
        assert math.isclose(sum(zipf_weights(20)), 1.0)

    def test_descending(self):
        weights = zipf_weights(20)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_pure_zipf_ratio(self):
        weights = zipf_weights(10)
        assert weights[0] / weights[4] == pytest.approx(5.0)

    def test_exponent_zero_is_uniform(self):
        weights = zipf_weights(4, exponent=0.0)
        assert weights == pytest.approx([0.25] * 4)

    def test_skew_matches_paper_claim(self):
        # "75% of the client requests come from only 10% of the domains"
        # is the motivation; pure Zipf over 20 domains concentrates >55%
        # of the load in the top 25% of domains.
        weights = zipf_weights(20)
        assert sum(weights[:5]) > 0.55

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(5, exponent=-1.0)


class TestZipf:
    def test_rank_zero_most_likely(self, rng):
        dist = Zipf(10)
        draws = [dist.sample(rng) for _ in range(10000)]
        counts = [draws.count(rank) for rank in range(10)]
        assert counts[0] == max(counts)

    def test_probabilities_expose_weights(self):
        assert Zipf(5).probabilities == pytest.approx(zipf_weights(5))

    def test_samples_in_range(self, rng):
        dist = Zipf(7)
        assert all(0 <= dist.sample(rng) < 7 for _ in range(1000))
