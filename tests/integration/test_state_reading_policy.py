"""A policy that reads live server state sees the per-page state.

The fast-lane drains defer each page burst into its server's pending
run (:mod:`repro.web.server`). Inside a drain the one reader of server
state is the LEAST-LOADED baseline, whose selection reads
``backlog_seconds`` during an authoritative resolve; every reader
applies the server's pending run first. If one did not, LEAST-LOADED
would route on a stale backlog and its trajectory would drift from the
event engine's, which offers each page as it happens. These tests run
LEAST-LOADED through every fast lane — the eager clients' drain, the
calendar drain and a cohort's replay — against the event engine.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ParallelExecutor, cohorts
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import state_digest

BASE = SimulationConfig(duration=600.0, seed=3, heterogeneity=35)
POLICIES = ["LEAST-LOADED", "RR", "DRR2-TTL/S_K"]


def fingerprint(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True, default=repr)


def test_cohort_matches_per_cell_event_runs():
    configs = [BASE.replace(policy=policy) for policy in POLICIES]
    assert len(cohorts(configs, "fastforward")) == 1
    cohort = ParallelExecutor().run_simulations(configs)
    assert [fingerprint(r) for r in cohort] == [
        fingerprint(run_simulation(config, engine_mode="event"))
        for config in configs
    ]


@pytest.mark.parametrize("population", ["eager", "lazy"])
def test_fast_forward_matches_event_mode(population):
    config = BASE.replace(policy="LEAST-LOADED", population=population)
    digests = {}
    for mode in ("event", "fastforward"):
        sim = Simulation(config, engine_mode=mode)
        cuts = []
        for t in (150.0, 300.0, 450.0, 600.0):
            sim.advance(t)
            cuts.append(state_digest(sim.snapshot_state()))
        digests[mode] = cuts
    assert digests["fastforward"] == digests["event"]
    assert fingerprint(
        run_simulation(config, engine_mode="fastforward")
    ) == fingerprint(run_simulation(config, engine_mode="event"))


@pytest.mark.parametrize("population", ["eager", "lazy"])
def test_no_run_is_left_pending(population):
    config = BASE.replace(
        policy="LEAST-LOADED", population=population, duration=120.0
    )
    sim = Simulation(config)
    sim.advance(61.5)
    assert not any(server.pending for server in sim.cluster)
    sim.run()
    assert not any(server.pending for server in sim.cluster)
