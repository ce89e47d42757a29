"""Unit tests for the local name servers of repro.dns.resolver.

Each name server is one slot of a :class:`ResolutionChain`; these tests
drive it through ``chain.resolve`` with a stub authoritative DNS.
"""

import pytest

from repro.dns.resolver import ResolutionChain
from repro.errors import ConfigurationError
from repro.sim.tracing import Tracer

from ..conftest import StubDns


def make_chain(dns=None, domain_count=4, **kwargs):
    return ResolutionChain(dns if dns is not None else StubDns(), domain_count, **kwargs)


class TestResolution:
    def test_first_resolution_goes_upstream(self):
        upstream = StubDns()
        chain = make_chain(upstream)
        record = chain.resolve(3, 0.0)
        assert chain.authoritative_answers == 1
        assert chain.cache_answers == 0
        assert upstream.calls == [(3, 0.0)]
        assert record.server_id == 0

    def test_second_resolution_served_from_cache(self):
        upstream = StubDns(ttl=100.0)
        chain = make_chain(upstream)
        chain.resolve(0, 0.0)
        chain.resolve(0, 50.0)
        assert chain.cache_answers == 1
        assert len(upstream.calls) == 1

    def test_expired_mapping_re_resolves(self):
        upstream = StubDns(ttl=100.0)
        chain = make_chain(upstream)
        chain.resolve(0, 0.0)
        chain.resolve(0, 100.0)
        assert chain.cache_answers == 0
        assert len(upstream.calls) == 2

    def test_cache_validity_uses_effective_ttl(self):
        upstream = StubDns(ttl=10.0)
        chain = make_chain(upstream, min_accepted_ttl=60.0)
        chain.resolve(0, 0.0)
        chain.resolve(0, 30.0)  # beyond recommended, within clamp
        assert chain.cache_answers == 1


class TestNonCooperativeBehaviour:
    def test_cooperative_ns_accepts_any_ttl(self):
        chain = make_chain()
        assert chain.effective_ttl(0.5) == 0.5

    def test_clamp_mode_imposes_own_minimum(self):
        chain = make_chain(min_accepted_ttl=120.0, override_mode="clamp")
        assert chain.effective_ttl(43.0) == 120.0
        assert chain.effective_ttl(120.0) == 120.0
        assert chain.effective_ttl(200.0) == 200.0

    def test_default_mode_substitutes_default_ttl(self):
        chain = make_chain(
            min_accepted_ttl=120.0, default_ttl=240.0, override_mode="default"
        )
        assert chain.effective_ttl(43.0) == 240.0
        assert chain.effective_ttl(150.0) == 150.0

    def test_override_counter_increments(self):
        chain = make_chain(StubDns(ttl=30.0), min_accepted_ttl=120.0)
        record = chain.resolve(0, 0.0)
        assert chain.nameserver_for(0).overridden_ttls == 1
        assert chain.ttl_overrides == 1
        assert record.ttl == 120.0

    def test_no_override_counted_for_large_ttl(self):
        chain = make_chain(StubDns(ttl=300.0), min_accepted_ttl=120.0)
        chain.resolve(0, 0.0)
        assert chain.nameserver_for(0).overridden_ttls == 0
        assert chain.ttl_overrides == 0


class TestTraceRecords:
    def test_miss_and_hit_payloads(self):
        tracer = Tracer()
        chain = make_chain(StubDns(server_id=4, ttl=30.0), min_accepted_ttl=60.0,
                           tracer=tracer)
        chain.resolve(1, 10.0)
        chain.resolve(1, 20.0)
        assert [(r.time, r.category, r.payload) for r in tracer] == [
            (10.0, "ns", {"domain": 1, "hit": False, "server": 4,
                          "recommended_ttl": 30.0, "effective_ttl": 60.0,
                          "overridden": True}),
            (20.0, "ns", {"domain": 1, "hit": True, "server": 4,
                          "expires_at": 70.0}),
        ]

    def test_hit_behind_the_clock_reports_no_expiry(self):
        # An older ``now`` is still served, but at the NS clock the record
        # has expired, so the hit carries no expiry time.
        tracer = Tracer()
        upstream = StubDns(ttl=10.0)
        chain = make_chain(upstream, tracer=tracer)
        chain.resolve(0, 0.0)
        upstream.ttl = 0.0
        chain.resolve(0, 20.0)
        chain.resolve(0, 5.0)
        assert tracer.records[-1].payload == {
            "domain": 0, "hit": True, "server": 0, "expires_at": None,
        }


class TestValidation:
    def test_negative_min_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chain(min_accepted_ttl=-1.0)

    def test_nonpositive_default_ttl_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chain(default_ttl=0.0)

    def test_unknown_override_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_chain(override_mode="ignore")
