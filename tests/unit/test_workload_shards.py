"""Unit tests for repro.workload.shards."""

from heapq import heappush

import pytest

from repro.core.round_robin import RoundRobinScheduler
from repro.core.estimator import OracleEstimator
from repro.core.state import SchedulerState
from repro.core.ttl.constant import ConstantTtlPolicy
from repro.dns.authoritative import AuthoritativeDns
from repro.dns.resolver import ResolutionChain
from repro.errors import ConfigurationError, SimulationError
from repro.sim.distributions import Constant, DiscreteUniform, Exponential
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.fastforward import FastForwardEnvironment
from repro.sim.rng import RandomStreams
from repro.web.cluster import ServerCluster
from repro.workload.clients import ClientPopulation
from repro.workload.domains import DomainSet
from repro.workload.sessions import SessionModel
from repro.workload.shards import (
    DEFAULT_SHARD_SIZE,
    ShardedClientPopulation,
)


def build_population(
    env, cls, domain_count=4, clients=8, seed=1, model=None, **kwargs
):
    cluster = ServerCluster.from_heterogeneity(20)
    domains = DomainSet.pure_zipf(domain_count)
    state = SchedulerState(cluster, OracleEstimator(domains.shares))
    dns = AuthoritativeDns(
        RoundRobinScheduler(state), ConstantTtlPolicy(100.0)
    )
    chain = ResolutionChain(dns, domain_count)
    if model is None:
        model = SessionModel(
            pages_per_session=Constant(3.0),
            hits_per_page=DiscreteUniform(5, 15),
            think_time=Constant(10.0),
        )
    population = cls(
        env, cluster, chain, domains, model, clients,
        RandomStreams(seed), **kwargs,
    )
    return population, chain, cluster


class TestSetup:
    def test_one_wake_per_client(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=8
        )
        assert len(population.processes) == 8

    def test_flat_state_sized_to_population(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=13
        )
        assert len(population._remaining) == 13
        assert len(population._home_domain) == 13
        assert all(r == -1 for r in population._remaining)

    def test_shard_count_covers_population(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=10, shard_size=4
        )
        assert population.shard_count == 3
        assert population.shard_size == 4

    def test_default_shard_size(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=8
        )
        assert population.shard_size == DEFAULT_SHARD_SIZE
        assert population.shard_count == 1

    def test_zero_clients_rejected(self, env):
        with pytest.raises(ConfigurationError):
            build_population(env, ShardedClientPopulation, clients=0)

    def test_bad_shard_size_rejected(self, env):
        with pytest.raises(ConfigurationError):
            build_population(
                env, ShardedClientPopulation, clients=8, shard_size=0
            )

    def test_home_domains_follow_client_counts(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, domain_count=4, clients=100
        )
        expected = DomainSet.pure_zipf(4).client_counts(100)
        got = [0] * 4
        for domain_id in population._home_domain:
            got[domain_id] += 1
        assert got == expected


class TestEagerParity:
    """The sharded population is a bit-exact mirror of the eager one."""

    def fingerprint(self, population):
        return (
            population.total_sessions,
            population.total_pages,
            population.total_hits,
            population.dns_routed_hits,
            population.client_cache_hits,
        )

    @pytest.mark.parametrize("caching", [False, True])
    def test_counters_identical_after_run(self, caching):
        results = []
        for cls in (ClientPopulation, ShardedClientPopulation):
            env = Environment()
            population, _, cluster = build_population(
                env, cls, domain_count=6, clients=40, seed=7,
                client_address_caching=caching,
            )
            env.run(until=600.0)
            results.append(self.fingerprint(population))
        assert results[0] == results[1]
        assert results[0][0] > 0

    def test_snapshot_state_identical(self):
        snapshots = []
        for cls in (ClientPopulation, ShardedClientPopulation):
            env = Environment()
            population, _, _ = build_population(
                env, cls, domain_count=6, clients=40, seed=7
            )
            env.run(until=600.0)
            snapshots.append(population.snapshot_state())
        assert snapshots[0] == snapshots[1]

    def test_server_hit_distribution_identical(self):
        distributions = []
        for cls in (ClientPopulation, ShardedClientPopulation):
            env = Environment()
            population, _, cluster = build_population(
                env, cls, domain_count=6, clients=40, seed=7
            )
            env.run(until=600.0)
            distributions.append(
                [
                    (server.total_hits, dict(server.domain_hits))
                    for server in cluster.servers
                ]
            )
        assert distributions[0] == distributions[1]


class TestShardStats:
    def test_session_totals_match_counter(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=20, shard_size=8
        )
        env.run(until=600.0)
        stats = population.shard_stats()
        assert stats["sessions_total"] == population.total_sessions
        assert stats["shard_count"] == 3
        assert stats["sessions_min"] <= stats["sessions_max"]

    def test_sessions_spread_across_shards(self, env):
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=32, shard_size=8
        )
        env.run(until=600.0)
        assert population.shard_stats()["sessions_min"] > 0


class TestFastLaneCalendar:
    """The fluid lane's calendar keeps the engine's ``(time, key)`` order."""

    def started(self, env):
        """A fluid-eligible population past its t=0 start phase."""
        population, _, _ = build_population(
            env, ShardedClientPopulation, clients=8, seed=3,
            model=SessionModel(),
        )
        env.run_events(8)
        return population

    def observe_tie(self, env, time, key):
        """Fire a foreign entry at ``(time, key)``; return what the
        population's counters read when it fires."""
        population = self.started(env)
        seen = []
        foreign = Event(env)
        foreign._callbacks = [
            lambda event: seen.append(
                (population.total_pages, population.total_hits)
            )
        ]
        heappush(env._queue, (time, key, foreign))
        env.run(until=time + 60.0)
        return population.engine, seen

    @pytest.mark.parametrize("offset", [-1, 1], ids=["before", "after"])
    def test_foreign_entry_at_a_wake_time_is_ordered_by_key(self, offset):
        # The tie is with the second pending wake, so the fast lane meets
        # it inside a drain, after dispatching the first.
        probe = Environment()
        self.started(probe)
        time, key, _ = sorted(probe._queue)[1]
        engine, fast = self.observe_tie(
            FastForwardEnvironment(), time, key + offset
        )
        assert engine == "fluid"
        reference, expected = self.observe_tie(
            Environment(), time, key + offset
        )
        assert reference == "event"
        assert fast == expected
        assert expected[0][0] == (1 if offset < 0 else 2)


@pytest.mark.parametrize(
    "env_class, engine",
    [(Environment, "event"), (FastForwardEnvironment, "fluid")],
    ids=["event", "fastforward"],
)
def test_infinite_think_delay_is_a_simulation_error(env_class, engine):
    # A mean of 1e308 makes most exponential think draws overflow to inf;
    # both engines refuse the first one with the same typed error.
    env = env_class()
    population, _, _ = build_population(
        env, ShardedClientPopulation,
        model=SessionModel(think_time=Exponential(1e308)),
    )
    assert population.engine == engine
    with pytest.raises(SimulationError, match="must be finite"):
        env.run_events(400)
