"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.estimator import OracleEstimator
from repro.core.state import SchedulerState
from repro.dns.records import AddressRecord
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.web.cluster import ServerCluster
from repro.workload.domains import DomainSet


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams():
    """Deterministic random streams."""
    return RandomStreams(12345)


def make_state(
    heterogeneity: int = 20,
    domain_count: int = 20,
    uniform: bool = False,
) -> SchedulerState:
    """A SchedulerState over a Table 2 cluster with oracle Zipf weights."""
    cluster = ServerCluster.from_heterogeneity(heterogeneity)
    domains = (
        DomainSet.uniform(domain_count)
        if uniform
        else DomainSet.pure_zipf(domain_count)
    )
    return SchedulerState(cluster, OracleEstimator(domains.shares))


@pytest.fixture
def state():
    """Default scheduler state: het 20%, 20 Zipf domains."""
    return make_state()


class StubDns:
    """Authoritative-DNS stand-in for a ``ResolutionChain``.

    Answers every resolution with ``server_id`` and ``ttl`` and records
    each call as ``(domain_id, now)`` in :attr:`calls`. ``ttl`` may be
    changed between resolutions.
    """

    def __init__(self, server_id: int = 0, ttl: float = 240.0):
        self.server_id = server_id
        self.ttl = ttl
        self.calls = []

    def resolve(self, domain_id: int, now: float) -> AddressRecord:
        self.calls.append((domain_id, now))
        return AddressRecord(server_id=self.server_id, ttl=self.ttl, issued_at=now)
