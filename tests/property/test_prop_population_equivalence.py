"""Hypothesis harness: eager vs sharded populations, randomly drawn.

Complements the named configurations in
tests/integration/test_population_equivalence.py with randomly drawn
ones: any divergence in RNG draw order, float arithmetic, or event
scheduling between ClientPopulation and ShardedClientPopulation
surfaces as a value diff in the serialized result or a digest mismatch
at a mid-run cut.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import state_digest

POLICIES = ["RR", "RR2", "DRR-TTL/S_K", "DRR2-TTL/S_K", "PRR-TTL/K"]

configs = st.builds(
    SimulationConfig,
    policy=st.sampled_from(POLICIES),
    heterogeneity=st.sampled_from([0, 20, 50]),
    duration=st.sampled_from([120.0, 240.0]),
    total_clients=st.sampled_from([50, 120]),
    domain_count=st.sampled_from([5, 10, 20]),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    workload_error=st.sampled_from([0.0, 0.25]),
    estimator=st.sampled_from(["oracle", "measured"]),
    client_address_caching=st.booleans(),
    # Small shard sizes force multi-shard bookkeeping even at 50
    # clients; the partition must not be observable.
    shard_size=st.sampled_from([7, 64, 4096]),
    # Session-model edges: one page per session (the degenerate
    # geometric branch) and hit ranges of width 1 and 4.
    mean_pages_per_session=st.sampled_from([20.0, 1.0]),
    hits_per_page=st.sampled_from([(5, 15), (1, 1), (4, 7)]),
)

common = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fingerprint(result) -> str:
    data = dataclasses.asdict(result)
    data["config"].pop("population", None)
    data["config"].pop("shard_size", None)
    return json.dumps(data, sort_keys=True, default=repr)


class TestPopulationEquivalence:
    @given(configs)
    @common
    def test_results_are_bit_identical(self, config):
        eager = run_simulation(
            dataclasses.replace(config, population="eager")
        )
        lazy = run_simulation(
            dataclasses.replace(config, population="lazy")
        )
        assert fingerprint(eager) == fingerprint(lazy)

    @given(configs)
    @common
    def test_midrun_state_digests_agree(self, config):
        cut = config.duration / 2
        digests = []
        for population in ("eager", "lazy"):
            sim = Simulation(
                dataclasses.replace(config, population=population)
            )
            sim.advance(cut)
            digests.append(state_digest(sim.snapshot_state()))
        assert digests[0] == digests[1]

    @given(configs)
    @common
    def test_lazy_fastforward_matches_eager_event(self, config):
        """Cross both axes at once: the sharded population under the
        fast-forward engine equals the eager one under the reference
        engine."""
        eager = run_simulation(
            dataclasses.replace(config, population="eager"),
            engine_mode="event",
        )
        lazy = run_simulation(
            dataclasses.replace(config, population="lazy"),
            engine_mode="fastforward",
        )
        assert fingerprint(eager) == fingerprint(lazy)
