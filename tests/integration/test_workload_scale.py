"""Bounded-memory guarantees for large-K workloads (slow tier).

A truncated large-K configuration runs under a hard tracemalloc
budget: if any construction path regresses to materializing
per-domain or per-client Python lists (the eager-spawn ceiling this
refactor removed), allocations jump by an order of magnitude and
these fail.  The full 10^6-domain budget gate runs in CI as the
``workload-scale`` job via ``benchmarks/bench_workload_scale.py``.
"""

import tracemalloc

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation
from repro.workload.domains import DomainSet

#: Twice the K = 10^5 of the repository benchmark, while keeping the
#: slow tier's runtime in seconds.
DOMAINS = 200_000

#: MiB of traced allocations allowed for a truncated large-K run.
#: Measured peaks sit near 5 MiB; one eager 200k-element list of
#: tuples alone would add several times that.
BUDGET_MIB = 48.0


def traced_peak_mib(call):
    """``call()``'s value and the peak MiB of traced allocations in it."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak / (1024.0 * 1024.0)


def run_peak_mib(config):
    result, peak = traced_peak_mib(lambda: Simulation(config).run())
    assert result.total_hits > 0
    return peak


@pytest.mark.slow
def test_synthetic_large_k_within_budget():
    config = SimulationConfig(
        policy="RR",
        domain_count=DOMAINS,
        total_clients=1_000,
        population="lazy",
        duration=60.0,
        seed=5,
    )
    assert run_peak_mib(config) <= BUDGET_MIB


@pytest.mark.slow
def test_trace_large_k_within_budget():
    config = SimulationConfig(
        policy="RR",
        domain_count=DOMAINS,
        workload_source="trace",
        trace_profile="diurnal",
        trace_rate=2.0,
        duration=60.0,
        seed=5,
    )
    assert run_peak_mib(config) <= BUDGET_MIB


@pytest.mark.slow
def test_million_domain_set_builds_without_a_share_list():
    """Building 10^6 shares holds two 8 MB arrays at most; a list of
    10^6 boxed floats alone would take about 32 MiB."""
    domains, peak = traced_peak_mib(lambda: DomainSet.pure_zipf(10**6))
    assert domains.domain_count == 10**6
    assert peak < 16.0


@pytest.mark.slow
def test_million_domain_client_counts_stream():
    """Streaming client counts allocate O(winners), not O(K)."""
    domains = DomainSet.pure_zipf(10**6)
    total, peak = traced_peak_mib(
        lambda: sum(domains.iter_client_counts(1_000))
    )
    assert total == 1_000
    assert peak < 8.0  # an 8 MB float array alone busts this
