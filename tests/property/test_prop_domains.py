"""Property-based tests for the domain/workload model."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.workload.domains import DomainSet


class TestClientCounts:
    @given(st.integers(min_value=1, max_value=200),
           st.integers(min_value=1, max_value=5000))
    def test_counts_sum_exactly(self, domains, clients):
        counts = DomainSet.pure_zipf(domains).client_counts(clients)
        assert sum(counts) == clients
        assert all(count >= 0 for count in counts)

    @given(st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=5000))
    def test_counts_within_one_of_exact_share(self, domains, clients):
        domain_set = DomainSet.pure_zipf(domains)
        counts = domain_set.client_counts(clients)
        for count, share in zip(counts, domain_set.shares):
            assert abs(count - share * clients) <= 1.0

    @given(st.integers(min_value=2, max_value=100))
    def test_zipf_counts_nonincreasing(self, domains):
        counts = DomainSet.pure_zipf(domains).client_counts(1000)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestPerturbation:
    shares_strategy = st.integers(min_value=2, max_value=100).map(
        lambda k: DomainSet.pure_zipf(k)
    )

    @given(shares_strategy,
           st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_total_mass_preserved(self, domains, error):
        assume(domains.shares[0] * (1 + error) < 1.0)
        perturbed = domains.perturb_hottest(error)
        assert math.isclose(sum(perturbed.shares), 1.0)

    @given(shares_strategy,
           st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    def test_hot_grows_others_shrink(self, domains, error):
        assume(domains.shares[0] * (1 + error) < 1.0)
        perturbed = domains.perturb_hottest(error)
        assert perturbed.shares[0] > domains.shares[0]
        for original, new in zip(domains.shares[1:], perturbed.shares[1:]):
            assert new <= original

    @given(shares_strategy,
           st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    def test_relative_order_preserved(self, domains, error):
        assume(domains.shares[0] * (1 + error) < 1.0)
        perturbed = domains.perturb_hottest(error)
        order = sorted(range(len(domains)), key=lambda j: -domains.shares[j])
        new_order = sorted(
            range(len(perturbed)), key=lambda j: -perturbed.shares[j]
        )
        assert order == new_order


class TestRelativeWeights:
    @given(st.integers(min_value=1, max_value=200))
    def test_weights_in_unit_interval_with_peak_one(self, domains):
        weights = DomainSet.pure_zipf(domains).relative_weights
        assert max(weights) == 1.0
        assert all(0.0 < w <= 1.0 for w in weights)


class TestZipfShares:
    @given(st.integers(min_value=1, max_value=400),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_bit_equal_to_list_formula(self, k, exponent):
        """The array pass keeps the list formula's values bit for bit:
        the same power expression, summed in the same rank order."""
        raw = [1.0 / (rank**exponent) for rank in range(1, k + 1)]
        total = sum(raw)
        expected = [value / total for value in raw]
        assert list(DomainSet.pure_zipf(k, exponent).shares) == expected


class TestLazyScale:
    """Large-K invariants, read through the streaming accessors."""

    @given(st.integers(min_value=1_000, max_value=100_000),
           st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_counts_sum_exactly_at_scale(self, k, clients):
        counts = DomainSet.pure_zipf(k).client_counts(clients)
        assert sum(counts) == clients
        assert all(c >= 0 for c in counts)

    @given(st.integers(min_value=2, max_value=50_000))
    @settings(max_examples=10, deadline=None)
    def test_zipf_shares_strictly_descending(self, k):
        previous = None
        for share in DomainSet.pure_zipf(k).iter_shares():
            assert share > 0.0
            if previous is not None:
                assert share < previous
            previous = share

    def test_million_domain_counts_sum_exactly(self):
        domains = DomainSet.pure_zipf(1_000_000)
        total = 0
        nonzero = 0
        for count in domains.iter_client_counts(50_000):
            total += count
            nonzero += count > 0
        assert total == 50_000
        assert nonzero > 0

    def test_million_domain_samples_cover_tail(self):
        domains = DomainSet.pure_zipf(1_000_000)
        assert domains.sample_domain(0.0) == 0
        head = domains.sample_domain(0.05)
        tail = domains.sample_domain(0.999999)
        assert head < tail
        assert tail < 1_000_000


class TestPerturbationMass:
    @given(st.integers(min_value=2, max_value=2_000),
           st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved_to_ulp_scale(self, k, error):
        domains = DomainSet.pure_zipf(k)
        assume(domains.shares[0] * (1 + error) < 1.0)
        perturbed = domains.perturb_hottest(error)
        assert abs(sum(perturbed.shares) - 1.0) < 1e-12
