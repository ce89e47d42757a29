"""Model-based property tests for the name-server TTL caches.

The central property (see the module docstring of
:mod:`repro.dns.resolver`): every view of a name server's cache —
``resolve``, ``cached``, ``expires_at`` and the counters — agrees with a
naive model about which records are live, under arbitrary interleavings
of resolutions, clock advances, stale (older) times and rejected
non-finite times, for two name servers per domain and both override
modes. The ``resolve`` rule checks resolution against the model and the
invariant checks every other view against the same model, so all views
are transitively checked against each other.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dns.resolver import ResolutionChain
from repro.errors import ConfigurationError

from ..conftest import StubDns

DOMAINS = 2
NS_PER_DOMAIN = 2
SLOTS = range(DOMAINS * NS_PER_DOMAIN)

ttls = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0, allow_nan=False))


class CacheModel(RuleBasedStateMachine):
    """Compare ResolutionChain against a naive dict-of-expiries model."""

    @initialize(
        min_ttl=st.sampled_from([0.0, 20.0]),
        mode=st.sampled_from(["clamp", "default"]),
    )
    def build(self, min_ttl, mode):
        self.dns = StubDns()
        self.chain = ResolutionChain(
            self.dns,
            DOMAINS,
            min_accepted_ttl=min_ttl,
            default_ttl=60.0,
            override_mode=mode,
            nameservers_per_domain=NS_PER_DOMAIN,
        )
        self.min_ttl = min_ttl
        self.override_ttl = min_ttl if mode == "clamp" else 60.0
        #: slot -> (server_id, expires_at), physical entries.
        self.model = {}
        self.clock = dict.fromkeys(SLOTS, 0.0)
        self.counts = {slot: dict.fromkeys(
            ("hits", "misses", "expirations", "insertions", "overridden_ttls"), 0
        ) for slot in SLOTS}
        self.now = 0.0

    def _live(self, slot, now):
        entry = self.model.get(slot)
        return entry if entry is not None and now < entry[1] else None

    def _resolve(self, domain, client, ttl, server, now):
        slot = domain * NS_PER_DOMAIN + client % NS_PER_DOMAIN
        counts = self.counts[slot]
        self.clock[slot] = max(self.clock[slot], now)
        self.dns.ttl, self.dns.server_id = ttl, server
        live = self._live(slot, now)
        if live is not None:
            counts["hits"] += 1
            expected = (live[0], True)
        else:
            if slot in self.model:
                # resolve() removes the expired entry; mirror it.
                del self.model[slot]
                counts["expirations"] += 1
            counts["misses"] += 1
            effective = ttl if ttl >= self.min_ttl else self.override_ttl
            if effective != ttl:
                counts["overridden_ttls"] += 1
            self.model[slot] = (server, now + effective)
            counts["insertions"] += 1
            expected = (server, False)
        before = self.chain.cache_answers
        record = self.chain.resolve(domain, now, client)
        assert (record.server_id, self.chain.cache_answers > before) == expected

    @rule(domain=st.integers(0, DOMAINS - 1), client=st.integers(0, 5),
          ttl=ttls, server=st.integers(0, 6))
    def resolve(self, domain, client, ttl, server):
        self._resolve(domain, client, ttl, server, self.now)

    @rule(domain=st.integers(0, DOMAINS - 1), client=st.integers(0, 5),
          ttl=ttls, server=st.integers(0, 6),
          back=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def resolve_in_the_past(self, domain, client, ttl, server, back):
        self._resolve(domain, client, ttl, server, max(0.0, self.now - back))

    @rule(delta=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    def advance_time(self, delta):
        self.now += delta

    @rule(domain=st.integers(0, DOMAINS - 1), client=st.integers(0, 5),
          now=st.sampled_from([math.nan, math.inf, -math.inf]))
    def non_finite_now(self, domain, client, now):
        with pytest.raises(ConfigurationError):
            self.chain.resolve(domain, now, client)

    @invariant()
    def all_views_agree(self):
        chain = self.chain
        views = chain.nameservers
        assert [ns.slot for ns in views] == list(SLOTS)
        for ns in views:
            slot = ns.slot
            assert ns == chain.nameserver_for(ns.domain_id, slot % NS_PER_DOMAIN)
            for now in (self.now, None):
                live = self._live(slot, self.clock[slot] if now is None else now)
                assert ns.expires_at(now) == (live[1] if live else None)
                cached = ns.cached(now)
                assert (cached.server_id if cached else None) == (live[0] if live else None)
            assert ns.clock == self.clock[slot]
            counts = self.counts[slot]
            for name, value in counts.items():
                assert getattr(ns, name) == value
            entry = self.model.get(slot)
            assert [e[2] for e in ns.snapshot_state()["cache"]["entries"]] == (
                [entry[1]] if entry else []
            )
        total = sum(c["hits"] + c["misses"] for c in self.counts.values())
        assert chain.cache_answers + chain.authoritative_answers == total
        assert chain.ttl_overrides == sum(chain.ttl_override_counts().values())


TestCacheModel = CacheModel.TestCase


class TestCacheStats:
    @given(st.lists(st.tuples(st.sampled_from([0, 1]),
                              st.floats(min_value=0.0, max_value=10.0,
                                        allow_nan=False)),
                    max_size=50))
    def test_hits_plus_misses_equals_lookups(self, operations):
        chain = ResolutionChain(StubDns(ttl=5.0), 2)
        chain.resolve(0, 0.0)
        for domain, now in operations:
            chain.resolve(domain, now)
        views = chain.nameservers
        assert sum(ns.hits + ns.misses for ns in views) == len(operations) + 1
        assert chain.cache_answers + chain.authoritative_answers == len(operations) + 1
        assert 0.0 <= chain.dns_control_fraction <= 1.0

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_non_finite_ttls_never_enter_the_cache(self, ttl):
        chain = ResolutionChain(StubDns(ttl=ttl), 1)
        ns = chain.nameserver_for(0)
        if math.isfinite(ttl) and ttl >= 0:
            chain.resolve(0, 0.0)
            assert ns.insertions == 1
        elif math.isnan(ttl):
            # Overridden: NaN fails ``>= min_accepted_ttl``.
            assert chain.resolve(0, 0.0).ttl == 0.0
        else:
            with pytest.raises(ConfigurationError):
                chain.resolve(0, 0.0)
            assert ns.insertions == 0
            assert ns.cached() is None
        entries = ns.snapshot_state()["cache"]["entries"]
        assert all(math.isfinite(entry[2]) for entry in entries)
