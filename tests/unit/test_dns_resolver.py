"""Unit tests for repro.dns.resolver."""

import pytest

from repro.dns.authoritative import AuthoritativeDns
from repro.dns.resolver import LAZY_NS_THRESHOLD, ResolutionChain
from repro.errors import ConfigurationError


class RoundRobinStub:
    def __init__(self):
        self.counter = -1

    def select(self, domain_id, now):
        self.counter += 1
        return self.counter % 7


class FixedTtl:
    def __init__(self, ttl):
        self.ttl = ttl

    def ttl_for(self, domain_id, server_id, now):
        return self.ttl


def make_chain(domain_count=4, ttl=100.0, **kwargs):
    dns = AuthoritativeDns(RoundRobinStub(), FixedTtl(ttl))
    return ResolutionChain(dns, domain_count, **kwargs)


class TestResolutionChain:
    def test_requires_domains(self):
        dns = AuthoritativeDns(RoundRobinStub(), FixedTtl(1.0))
        with pytest.raises(ConfigurationError):
            ResolutionChain(dns, 0)

    def test_one_nameserver_per_domain(self):
        chain = make_chain(domain_count=5)
        assert len(chain.nameservers) == 5
        assert [ns.domain_id for ns in chain.nameservers] == list(range(5))

    def test_first_resolution_authoritative(self):
        chain = make_chain()
        chain.resolve(0, 0.0)
        assert chain.authoritative_answers == 1
        assert chain.cache_answers == 0

    def test_repeat_within_ttl_cached(self):
        chain = make_chain(ttl=100.0)
        chain.resolve(0, 0.0)
        chain.resolve(0, 50.0)
        assert chain.authoritative_answers == 1
        assert chain.cache_answers == 1

    def test_domains_have_independent_caches(self):
        chain = make_chain(ttl=100.0)
        first = chain.resolve(0, 0.0)
        second = chain.resolve(1, 0.0)
        assert chain.authoritative_answers == 2
        # The round-robin stub hands out different servers per query.
        assert first.server_id != second.server_id

    def test_dns_control_fraction(self):
        chain = make_chain(ttl=100.0)
        assert chain.dns_control_fraction == 0.0
        chain.resolve(0, 0.0)
        chain.resolve(0, 10.0)
        chain.resolve(0, 20.0)
        assert chain.dns_control_fraction == pytest.approx(1 / 3)

    def test_ttl_override_counts(self):
        chain = make_chain(ttl=30.0, min_accepted_ttl=60.0)
        chain.resolve(0, 0.0)
        chain.resolve(1, 0.0)
        counts = chain.ttl_override_counts()
        assert counts[0] == 1
        assert counts[1] == 1
        assert counts[2] == 0

    def test_override_mode_propagates(self):
        chain = make_chain(
            ttl=30.0, min_accepted_ttl=60.0, override_mode="default",
            default_ttl=240.0,
        )
        record = chain.resolve(0, 0.0)
        assert record.ttl == 240.0
        clamped = make_chain(ttl=30.0, min_accepted_ttl=60.0)
        assert clamped.resolve(0, 0.0).ttl == 60.0


class TestMultipleNameserversPerDomain:
    def test_validation(self):
        dns = AuthoritativeDns(RoundRobinStub(), FixedTtl(1.0))
        with pytest.raises(ConfigurationError):
            ResolutionChain(dns, 4, nameservers_per_domain=0)

    def test_flat_list_covers_all(self):
        chain = make_chain(domain_count=3, nameservers_per_domain=2)
        assert len(chain.nameservers) == 6
        assert [ns.domain_id for ns in chain.nameservers] == [0, 0, 1, 1, 2, 2]

    def test_clients_partitioned_across_ns_set(self):
        chain = make_chain(domain_count=2, nameservers_per_domain=2)
        assert chain.nameserver_for(0, client_id=0) != chain.nameserver_for(
            0, client_id=1
        )
        assert chain.nameserver_for(0, client_id=0) == chain.nameserver_for(
            0, client_id=2
        )
        assert [chain.nameserver_for(1, c).slot for c in range(4)] == [2, 3, 2, 3]

    def test_split_caches_increase_authoritative_traffic(self):
        single = make_chain(domain_count=1, ttl=100.0)
        single.resolve(0, 0.0, client_id=0)
        single.resolve(0, 1.0, client_id=1)
        assert single.authoritative_answers == 1

        split = make_chain(
            domain_count=1, ttl=100.0, nameservers_per_domain=2
        )
        split.resolve(0, 0.0, client_id=0)
        split.resolve(0, 1.0, client_id=1)  # other NS: cold cache
        assert split.authoritative_answers == 2

    def test_override_counts_summed_per_domain(self):
        chain = make_chain(
            domain_count=2, ttl=30.0, min_accepted_ttl=60.0,
            nameservers_per_domain=2,
        )
        chain.resolve(0, 0.0, client_id=0)
        chain.resolve(0, 0.0, client_id=1)
        counts = chain.ttl_override_counts()
        assert counts[0] == 2
        assert counts[1] == 0


class TestConstructionValidation:
    """Regression: at or above ``LAZY_NS_THRESHOLD`` domains a bad NS
    setting used to surface only at the first resolution."""

    @pytest.mark.parametrize("domain_count", [4, LAZY_NS_THRESHOLD])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_accepted_ttl": -1.0},
            {"default_ttl": 0.0},
            {"override_mode": "bogus"},
        ],
    )
    def test_rejected_at_construction(self, domain_count, kwargs):
        with pytest.raises(ConfigurationError):
            make_chain(domain_count=domain_count, **kwargs)

    def test_out_of_range_domain(self):
        chain = make_chain(domain_count=4)
        for domain_id in (-1, 4):
            with pytest.raises(IndexError):
                chain.resolve(domain_id, 0.0)
            with pytest.raises(IndexError):
                chain.nameserver_for(domain_id)
        assert chain.cache_answers + chain.authoritative_answers == 0


class TestMaterializedNameservers:
    def test_every_slot_listed_below_threshold(self):
        chain = make_chain(domain_count=50, nameservers_per_domain=2)
        assert len(chain.nameservers) == 100
        chain.resolve(7, 0.0, client_id=1)
        assert len(chain.nameservers) == 100

    def test_touched_slots_listed_at_threshold(self):
        chain = make_chain(domain_count=LAZY_NS_THRESHOLD)
        assert chain.nameservers == []
        for domain_id in (99_999, 5, 5, 42):
            chain.resolve(domain_id, 0.0)
        assert len(chain.nameservers) == 3
        assert [ns.domain_id for ns in chain.nameservers] == [5, 42, 99_999]

    def test_touched_domain_lists_its_whole_set(self):
        chain = make_chain(domain_count=LAZY_NS_THRESHOLD, nameservers_per_domain=2)
        chain.resolve(9, 0.0, client_id=1)
        assert [ns.slot for ns in chain.nameservers] == [18, 19]
        untouched = chain.nameservers[0].snapshot_state()
        assert untouched["cache"]["entries"] == []
        assert untouched["cache"]["stats"]["misses"] == 0

    def test_views_do_not_materialize(self):
        chain = make_chain(domain_count=LAZY_NS_THRESHOLD)
        assert chain.nameserver_for(3).misses == 0
        assert chain.nameservers == []


class TestRunningOverrideTotal:
    def test_total_matches_per_domain_counts(self):
        chain = make_chain(
            domain_count=3, ttl=30.0, min_accepted_ttl=60.0,
            nameservers_per_domain=2,
        )
        for now in (0.0, 61.0, 200.0):
            for client_id in range(3):
                chain.resolve(client_id % 3, now, client_id=client_id)
        assert chain.ttl_overrides == 9
        assert chain.ttl_overrides == sum(chain.ttl_override_counts().values())

    def test_simulation_reads_the_total(self):
        from repro import SimulationConfig
        from repro.experiments.simulation import Simulation

        sim = Simulation(
            SimulationConfig(
                policy="DRR2-TTL/S_K", duration=900.0, min_accepted_ttl=300.0,
                nameservers_per_domain=2, seed=3,
            )
        )
        result = sim.run()
        chain = sim.resolution_chain
        assert result.ns_ttl_overrides > 0
        assert result.ns_ttl_overrides == chain.ttl_overrides
        assert chain.ttl_overrides == sum(chain.ttl_override_counts().values())
        assert sim.metrics.snapshot()["ns.ttl_overrides"] == chain.ttl_overrides
