"""Unit tests for repro.workload.domains."""

import math
from array import array

import pytest

from repro.errors import ConfigurationError
from repro.workload.domains import DomainSet


class TestConstruction:
    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            DomainSet([0.5, 0.4])

    def test_shares_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            DomainSet([1.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSet([])

    @pytest.mark.parametrize(
        "shares",
        [
            [math.nan, math.nan],
            [0.5, math.nan, 0.5],
            [math.inf, 0.5],
            [math.inf, -math.inf],
        ],
    )
    def test_non_finite_shares_rejected(self, shares):
        with pytest.raises(ConfigurationError, match="finite"):
            DomainSet(shares)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain_count", [20, 100_000])
    def test_non_finite_zipf_exponent_rejected(self, domain_count, exponent):
        with pytest.raises(ConfigurationError, match="finite"):
            DomainSet.pure_zipf(domain_count, exponent)

    def test_shares_are_one_float_array(self):
        domains = DomainSet([0.25, 0.75])
        assert isinstance(domains.shares, array)
        assert domains.shares.typecode == "d"
        assert list(domains.shares) == [0.25, 0.75]

    def test_pure_zipf_shares(self):
        domains = DomainSet.pure_zipf(4)
        harmonic = 1 + 1 / 2 + 1 / 3 + 1 / 4
        assert domains.shares[0] == pytest.approx(1 / harmonic)
        assert domains.shares[3] == pytest.approx(1 / (4 * harmonic))

    def test_uniform_shares(self):
        domains = DomainSet.uniform(5)
        assert domains.shares == pytest.approx([0.2] * 5)

    def test_uniform_requires_domains(self):
        with pytest.raises(ConfigurationError):
            DomainSet.uniform(0)


class TestDerivedQuantities:
    def test_relative_weights_peak_is_one(self):
        weights = DomainSet.pure_zipf(20).relative_weights
        assert max(weights) == pytest.approx(1.0)
        assert weights[0] == pytest.approx(1.0)

    def test_relative_weights_are_zipf_ratios(self):
        weights = DomainSet.pure_zipf(10).relative_weights
        assert weights[4] == pytest.approx(1 / 5)

    def test_hottest_domain(self):
        assert DomainSet.pure_zipf(10).hottest_domain() == 0

    def test_domain_count(self):
        assert DomainSet.pure_zipf(17).domain_count == 17
        assert len(DomainSet.pure_zipf(17)) == 17


class TestClientCounts:
    def test_counts_sum_to_total(self):
        domains = DomainSet.pure_zipf(20)
        for total in (1, 7, 500, 1234):
            assert sum(domains.client_counts(total)) == total

    def test_counts_roughly_proportional(self):
        domains = DomainSet.pure_zipf(20)
        counts = domains.client_counts(500)
        for count, share in zip(counts, domains.shares):
            assert abs(count - share * 500) < 1.0

    def test_paper_default_hot_domain_size(self):
        # Domain 1 holds ~27.8% of 500 clients = ~139 clients.
        counts = DomainSet.pure_zipf(20).client_counts(500)
        assert counts[0] in (138, 139, 140)

    def test_invalid_total_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSet.pure_zipf(5).client_counts(0)


class TestPerturbation:
    def test_zero_error_is_identity(self):
        domains = DomainSet.pure_zipf(10)
        perturbed = domains.perturb_hottest(0.0)
        assert perturbed.shares == pytest.approx(domains.shares)

    def test_hot_share_increases_by_error(self):
        domains = DomainSet.pure_zipf(10)
        perturbed = domains.perturb_hottest(0.3)
        assert perturbed.shares[0] == pytest.approx(domains.shares[0] * 1.3)

    def test_total_preserved(self):
        perturbed = DomainSet.pure_zipf(10).perturb_hottest(0.4)
        assert math.isclose(sum(perturbed.shares), 1.0)

    def test_other_domains_scaled_proportionally(self):
        domains = DomainSet.pure_zipf(10)
        perturbed = domains.perturb_hottest(0.2)
        ratios = [
            perturbed.shares[j] / domains.shares[j] for j in range(1, 10)
        ]
        assert max(ratios) - min(ratios) < 1e-12
        assert all(r < 1.0 for r in ratios)

    def test_skew_increases(self):
        domains = DomainSet.pure_zipf(10)
        perturbed = domains.perturb_hottest(0.5)
        assert max(perturbed.shares) > max(domains.shares)

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSet.pure_zipf(10).perturb_hottest(-0.1)

    def test_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSet([0.9, 0.1]).perturb_hottest(0.2)

    def test_single_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainSet([1.0]).perturb_hottest(0.1)


class TestStarvationRepair:
    """Largest-remainder rounding must not starve viable domains.

    With shares [0.38, 0.38, 0.06, 0.06, 0.06, 0.06] and 10 clients the
    exact allocations are [3.8, 3.8, 0.6, 0.6, 0.6, 0.6].  Floor+
    largest-remainder hands both leftovers to the two hot domains
    ([4, 4, 1, 1, 0, 0]), silently zeroing two domains whose exact
    share exceeds half a client.  The repair pass demotes the largest
    over-allocations instead, yielding [3, 3, 1, 1, 1, 1].
    """

    def test_half_client_domains_not_starved(self):
        domains = DomainSet([0.38, 0.38, 0.06, 0.06, 0.06, 0.06])
        assert domains.client_counts(10) == [3, 3, 1, 1, 1, 1]

    def test_repair_preserves_total(self):
        domains = DomainSet([0.38, 0.38, 0.06, 0.06, 0.06, 0.06])
        for total in (6, 10, 17, 100):
            assert sum(domains.client_counts(total)) == total

    def test_no_repair_when_unstarved(self):
        # Clean allocations are untouched: repair only fires when the
        # historical rounding would starve a >= 0.5-client domain.
        domains = DomainSet.pure_zipf(20)
        counts = domains.client_counts(500)
        assert sum(counts) == 500
        assert all(c > 0 for c in counts)

    def test_fewer_clients_than_half_share_domains(self):
        # Four domains each worth 0.5 client but only 1 client to give:
        # the largest exact shares win, the total is still exact.
        domains = DomainSet([0.4, 0.2, 0.2, 0.2])
        counts = domains.client_counts(1)
        assert sum(counts) == 1
        assert counts[0] == 1


class TestHottestTieBreak:
    def test_tie_resolves_to_lowest_index(self):
        assert DomainSet([0.25, 0.25, 0.25, 0.25]).hottest_domain() == 0
        assert DomainSet([0.1, 0.3, 0.3, 0.3]).hottest_domain() == 1

    def test_perturbation_on_flat_region_is_deterministic(self):
        domains = DomainSet([0.25, 0.25, 0.25, 0.25])
        perturbed = domains.perturb_hottest(0.2)
        assert perturbed.shares[0] == pytest.approx(0.3)
        assert perturbed.hottest_domain() == 0


class TestPerturbationRenormalization:
    def test_sum_exactly_one_after_large_k_perturbation(self):
        # The analytic rescale alone can drift below the constructor's
        # tolerance at large K; explicit renormalization contracts it.
        domains = DomainSet.pure_zipf(5000)
        perturbed = domains.perturb_hottest(0.3)
        assert abs(sum(perturbed.shares) - 1.0) < 1e-12

    def test_repeated_perturbation_does_not_drift(self):
        domains = DomainSet.pure_zipf(200)
        for _ in range(50):
            domains = DomainSet(domains.shares)
        perturbed = domains.perturb_hottest(0.25)
        assert abs(sum(perturbed.shares) - 1.0) < 1e-12
