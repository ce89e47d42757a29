"""Unit tests for the name-server TTL cache of repro.dns.resolver.

Each local name server of a :class:`ResolutionChain` caches the site
name; these tests drive that cache through ``chain.resolve`` with a stub
authoritative DNS and read it through :class:`NameServerView`.
"""

import math

import pytest

from repro.dns.resolver import ResolutionChain
from repro.errors import ConfigurationError

from ..conftest import StubDns


def make_chain(ttl=10.0, domain_count=4, **kwargs):
    dns = StubDns(ttl=ttl)
    return ResolutionChain(dns, domain_count, **kwargs), dns


def served_from_cache(chain, domain_id, now, client_id=0):
    """Resolve once; whether the name server's cache answered."""
    before = chain.cache_answers
    chain.resolve(domain_id, now, client_id)
    return chain.cache_answers > before


def live_domains(chain, now=None):
    return {ns.domain_id for ns in chain.nameservers if ns.cached(now) is not None}


def physical_entries(ns):
    return ns.snapshot_state()["cache"]["entries"]


class TestTtlCache:
    def test_miss_on_empty(self):
        chain, _ = make_chain()
        ns = chain.nameserver_for(0)
        assert ns.cached(0.0) is None
        assert not served_from_cache(chain, 0, 0.0)
        assert ns.misses == 1

    def test_hit_within_ttl(self):
        chain, dns = make_chain(ttl=10.0)
        dns.server_id = 5
        chain.resolve(0, 0.0)
        assert chain.resolve(0, 9.999).server_id == 5
        assert chain.nameserver_for(0).hits == 1

    def test_expiry_at_ttl_boundary(self):
        chain, _ = make_chain(ttl=10.0)
        chain.resolve(0, 0.0)
        assert not served_from_cache(chain, 0, 10.0)
        assert chain.nameserver_for(0).expirations == 1

    def test_expired_entry_is_removed(self):
        chain, dns = make_chain(ttl=10.0)
        chain.resolve(0, 0.0)
        ns = chain.nameserver_for(0)
        # Expired but not yet removed: removal is lazy.
        assert ns.cached(20.0) is None
        assert len(physical_entries(ns)) == 1
        assert ns.expirations == 0
        dns.ttl = math.inf  # the refetch cannot be cached
        with pytest.raises(ConfigurationError):
            chain.resolve(0, 20.0)
        assert ns.expirations == 1
        assert physical_entries(ns) == []
        assert live_domains(chain) == set()

    def test_negative_ttl_rejected(self):
        chain, dns = make_chain(ttl=-1.0)
        with pytest.raises(ConfigurationError):
            chain.resolve(0, 0.0)
        assert chain.nameserver_for(0).insertions == 0
        # A negative recommendation would be cached for the NS minimum.
        assert chain.effective_ttl(-1.0) == 0.0

    def test_zero_ttl_entry_is_immediately_stale(self):
        chain, _ = make_chain(ttl=0.0)
        chain.resolve(0, 5.0)
        assert not served_from_cache(chain, 0, 5.0)
        assert chain.authoritative_answers == 2

    def test_overwrite_refreshes_expiry(self):
        chain, dns = make_chain(ttl=10.0)
        dns.server_id = 1
        chain.resolve(0, 0.0)
        dns.server_id = 2
        assert chain.resolve(0, 10.0).server_id == 2
        assert chain.resolve(0, 15.0).server_id == 2
        assert chain.nameserver_for(0).expires_at() == 20.0

    def test_expires_at(self):
        chain, _ = make_chain(ttl=10.0)
        chain.resolve(0, 2.0)
        assert chain.nameserver_for(0).expires_at() == 12.0
        assert chain.nameserver_for(1).expires_at() is None

    def test_hit_ratio(self):
        chain, _ = make_chain(ttl=100.0)
        ns = chain.nameserver_for(0)
        assert ns.hits == ns.misses == 0
        chain.resolve(0, 0.0)
        chain.resolve(0, 1.0)
        assert ns.hits / (ns.hits + ns.misses) == 0.5
        assert chain.dns_control_fraction == 0.5

    def test_multiple_keys_independent(self):
        chain, dns = make_chain()
        dns.ttl, dns.server_id = 5.0, 1
        chain.resolve(0, 0.0)
        dns.ttl, dns.server_id = 15.0, 2
        chain.resolve(1, 0.0)
        assert not served_from_cache(chain, 0, 10.0)
        assert chain.resolve(1, 10.0).server_id == 2
        assert chain.nameserver_for(1).hits == 1


class TestExpiryAwareViews:
    """Regression: the views must agree with what a resolution would see,
    whether or not the expired record has been removed yet."""

    def test_contains_is_expiry_aware(self):
        chain, dns = make_chain(ttl=10.0)
        chain.resolve(0, 0.0)
        ns = chain.nameserver_for(0)
        assert ns.cached() is not None
        assert ns.cached(20.0) is None
        assert ns.expires_at(20.0) is None
        # A zero-TTL refetch is stale at the NS clock, so the zero-argument
        # views report it absent although it is still physically cached.
        dns.ttl = 0.0
        chain.resolve(0, 20.0)
        assert ns.clock == 20.0
        assert len(physical_entries(ns)) == 1
        assert ns.cached() is None
        assert live_domains(chain) == set()

    def test_len_counts_only_live_entries(self):
        chain, dns = make_chain()
        dns.ttl = 5.0
        chain.resolve(0, 0.0)
        dns.ttl = 50.0
        chain.resolve(1, 0.0)
        assert live_domains(chain) == {0, 1}
        assert live_domains(chain, 10.0) == {1}
        assert chain.nameserver_for(0).cached(10.0) is None
        assert chain.nameserver_for(1).cached(10.0) is not None

    def test_views_agree_with_get_without_mutating_stats(self):
        chain, _ = make_chain(ttl=10.0)
        chain.resolve(0, 0.0)
        ns = chain.nameserver_for(0)
        assert ns.cached(15.0) is None
        assert ns.hits + ns.misses == 1
        assert ns.expirations == 0
        # The resolution is the one that physically removes and counts it.
        assert not served_from_cache(chain, 0, 15.0)
        assert ns.expirations == 1

    def test_clock_never_goes_backwards(self):
        chain, dns = make_chain(ttl=10.0)
        chain.resolve(0, 0.0)
        dns.ttl = 0.0
        chain.resolve(0, 20.0)
        ns = chain.nameserver_for(0)
        assert ns.clock == 20.0
        # An older ``now`` is served by its own time but does not move the
        # clock back, so it does not resurrect the record for the views.
        assert served_from_cache(chain, 0, 5.0)
        assert ns.clock == 20.0
        assert ns.cached() is None


class TestNonFiniteRejection:
    """Regression: ``ttl < 0`` is False for NaN, so a NaN TTL could produce
    an entry whose expiry no comparison could ever trigger."""

    @pytest.mark.parametrize("ttl", [math.nan, math.inf, -math.inf])
    def test_non_finite_ttl_rejected(self, ttl):
        chain, _ = make_chain(ttl=ttl)
        ns = chain.nameserver_for(0)
        if math.isnan(ttl):
            # NaN fails ``>= min_accepted_ttl`` and is overridden.
            assert chain.resolve(0, 0.0).ttl == 0.0
            assert ns.overridden_ttls == 1
        else:
            with pytest.raises(ConfigurationError):
                chain.resolve(0, 0.0)
            assert ns.insertions == 0
        assert all(math.isfinite(entry[2]) for entry in physical_entries(ns))
        assert live_domains(chain, 0.0) == set()

    @pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
    def test_non_finite_now_rejected(self, now):
        chain, _ = make_chain(ttl=10.0)
        with pytest.raises(ConfigurationError):
            chain.resolve(1, now)
        chain.resolve(0, 0.0)
        ns = chain.nameserver_for(0)
        with pytest.raises(ConfigurationError):
            chain.resolve(0, now)
        with pytest.raises(ConfigurationError):
            ns.cached(now)
        with pytest.raises(ConfigurationError):
            ns.expires_at(now)
        assert ns.hits + ns.misses == 1
        assert ns.clock == 0.0
        assert chain.nameserver_for(1).misses == 0


class TestExpiresAt:
    """Regression: an expiry time was reported for records that a
    resolution would already treat as absent."""

    def test_expired_entry_has_no_expiry_time(self):
        chain, dns = make_chain(ttl=10.0)
        chain.resolve(0, 2.0)
        ns = chain.nameserver_for(0)
        assert ns.expires_at() == 12.0
        assert ns.expires_at(12.0) is None
        dns.ttl = 0.0
        chain.resolve(0, 12.0)
        assert ns.expires_at() is None  # clock advanced

    def test_agrees_with_get(self):
        for now in (0.0, 5.0, 9.999, 10.0, 50.0):
            fresh, _ = make_chain(ttl=10.0)
            fresh.resolve(0, 0.0)
            has_expiry = fresh.nameserver_for(0).expires_at(now) is not None
            assert has_expiry == served_from_cache(fresh, 0, now)
