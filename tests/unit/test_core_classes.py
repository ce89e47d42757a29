"""Unit tests for repro.core.classes (domain classification)."""

import tracemalloc

import pytest

from repro.core.classes import (
    LoadQuantileClassifier,
    PerDomainClassifier,
    SingleClassClassifier,
    TwoClassClassifier,
)
from repro.core.estimator import OracleEstimator
from repro.errors import ConfigurationError
from repro.workload.domains import DomainSet


def zipf_estimator(count=20):
    return OracleEstimator(DomainSet.pure_zipf(count).shares)


class TestSingleClass:
    def test_everything_in_class_zero(self):
        classifier = SingleClassClassifier(zipf_estimator())
        class_of, weights = classifier.classification()
        assert list(class_of) == [0] * 20
        assert list(weights) == [1.0]

    def test_class_weight_pinned_to_one(self):
        # TTL/1 and TTL/S_1 must not adapt to domains at all.
        classifier = SingleClassClassifier(zipf_estimator())
        assert classifier.class_weight(0) == 1.0
        assert classifier.class_count == 1


class TestTwoClass:
    def test_default_gamma_is_one_over_k(self):
        classifier = TwoClassClassifier(zipf_estimator(20))
        class_of, _ = classifier.classification()
        # Pure Zipf over 20 domains: shares 1/(j*H20); share > 1/20 for
        # j <= 5 (H20 ~ 3.5977).
        assert list(class_of[:5]) == [0] * 5
        assert list(class_of[5:]) == [1] * 15

    def test_hot_class_heavier_than_normal(self):
        classifier = TwoClassClassifier(zipf_estimator())
        _, weights = classifier.classification()
        assert weights[0] > weights[1] > 0

    def test_custom_threshold(self):
        classifier = TwoClassClassifier(zipf_estimator(20), threshold=0.2)
        class_of, _ = classifier.classification()
        assert class_of[0] == 0  # only the top domain exceeds 0.2
        assert all(cls == 1 for cls in class_of[1:])

    def test_uniform_workload_keeps_one_hot_domain(self):
        estimator = OracleEstimator(DomainSet.uniform(10).shares)
        classifier = TwoClassClassifier(estimator)
        class_of, _ = classifier.classification()
        assert class_of.count(0) == 1  # degenerate split stays well-defined

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoClassClassifier(zipf_estimator(), threshold=0.0)

    def test_class_of_accessor(self):
        classifier = TwoClassClassifier(zipf_estimator(20))
        assert classifier.class_of(0) == 0
        assert classifier.class_of(19) == 1


class TestLoadQuantile:
    def test_tier_count_respected(self):
        classifier = LoadQuantileClassifier(zipf_estimator(20), tier_count=4)
        class_of, weights = classifier.classification()
        assert set(class_of) == {0, 1, 2, 3}
        assert len(weights) == 4

    def test_tiers_ordered_by_weight(self):
        classifier = LoadQuantileClassifier(zipf_estimator(20), tier_count=3)
        _, weights = classifier.classification()
        assert weights[0] > weights[1] > weights[2]

    def test_hottest_domain_in_tier_zero(self):
        classifier = LoadQuantileClassifier(zipf_estimator(20), tier_count=3)
        assert classifier.class_of(0) == 0
        assert classifier.class_of(19) == 2

    def test_tiers_capped_at_domain_count(self):
        classifier = LoadQuantileClassifier(zipf_estimator(3), tier_count=10)
        class_of, weights = classifier.classification()
        assert len(weights) == 3
        assert sorted(class_of) == [0, 1, 2]

    def test_single_tier_degenerates(self):
        classifier = LoadQuantileClassifier(zipf_estimator(5), tier_count=1)
        class_of, _ = classifier.classification()
        assert list(class_of) == [0] * 5

    def test_invalid_tier_count_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadQuantileClassifier(zipf_estimator(), tier_count=0)


class TestPerDomain:
    def test_one_class_per_domain(self):
        classifier = PerDomainClassifier(zipf_estimator(20))
        class_of, weights = classifier.classification()
        assert list(class_of) == list(range(20))
        assert len(weights) == 20

    def test_weights_are_relative_hidden_loads(self):
        classifier = PerDomainClassifier(zipf_estimator(10))
        _, weights = classifier.classification()
        assert weights[0] == pytest.approx(1.0)
        assert weights[4] == pytest.approx(1 / 5)


class TestCaching:
    def test_classification_cached_per_version(self):
        estimator = zipf_estimator()
        classifier = TwoClassClassifier(estimator)
        first = classifier.classification()
        assert classifier.classification() is first

    def test_version_bump_invalidates_cache(self):
        estimator = zipf_estimator()
        classifier = TwoClassClassifier(estimator)
        first = classifier.classification()
        estimator.version += 1
        assert classifier.classification() is not first


class TestFlatMemory:
    def test_per_domain_classification_stays_flat(self):
        # At K = 10^5 the shares copy and the weights are two 8-byte
        # arrays (16 bytes per domain); lists of boxed floats and ints
        # cost about 100 bytes per domain and blow the bound.
        domains = 100_000
        classifier = PerDomainClassifier(zipf_estimator(domains))
        tracemalloc.start()
        try:
            classifier.classification()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * domains
