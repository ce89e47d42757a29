"""End-to-end tests for the trace-driven workload source."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation


def trace_config(**overrides):
    base = dict(
        policy="RR",
        duration=600.0,
        seed=3,
        workload_source="trace",
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestProfiles:
    @pytest.mark.parametrize("profile", ["constant", "ramp", "diurnal"])
    def test_profile_produces_traffic(self, profile):
        config = trace_config(trace_profile=profile)
        sim = Simulation(config)
        result = sim.run()
        assert result.total_sessions > 0
        assert result.total_hits > 0
        info = sim.workload_info
        assert info["source"] == "trace"
        assert info["population"] == "TraceDrivenPopulation"
        assert info["shards"]["arrivals_total"] == result.total_sessions

    def test_replay_profile(self, tmp_path):
        path = tmp_path / "arrivals.jsonl"
        lines = [
            {"t": 0.0, "rate": 0.5},
            {"t": 200.0, "rate": 3.0},
            {"t": 400.0, "rate": 1.0},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines))
        config = trace_config(
            trace_profile="replay", trace_path=str(path)
        )
        result = run_simulation(config)
        assert result.total_sessions > 0

    def test_diurnal_wave_modulates_arrivals(self):
        """More sessions arrive during the wave's crest than its trough."""
        config = trace_config(
            trace_profile="diurnal",
            trace_rate=1.0,
            trace_amplitude=0.9,
            trace_period=600.0,
            duration=600.0,
        )
        sim = Simulation(config)
        sim.advance(300.0)  # crest half: sin > 0
        crest = sim.population.total_arrivals
        sim.advance(600.0)  # trough half: sin < 0
        trough = sim.population.total_arrivals - crest
        assert crest > trough

    def test_explicit_rate_respected(self):
        # 0.2 sessions/s over 600 s => ~120 arrivals; the default rate
        # derived from total_clients would give an order of magnitude
        # more, so a loose band distinguishes them decisively.
        config = trace_config(trace_rate=0.2)
        sim = Simulation(config)
        result = sim.run()
        assert 60 <= result.total_sessions <= 200


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        config = trace_config(trace_profile="diurnal")
        a = run_simulation(config)
        b = run_simulation(config)
        assert a.total_hits == b.total_hits
        assert a.metrics == b.metrics

    def test_different_seed_different_trajectory(self):
        a = run_simulation(trace_config(seed=3))
        b = run_simulation(trace_config(seed=4))
        assert a.total_hits != b.total_hits

    def test_fastforward_takes_the_fluid_lane_and_matches_event(self):
        """Trace workloads drain natively under fast-forward, with no
        fallback, and still reproduce the event trajectory."""
        config = trace_config(duration=300.0)
        event = run_simulation(config, engine_mode="event")
        sim = Simulation(config, engine_mode="fastforward")
        fastforward = sim.run()
        info = sim.engine_info
        assert info["fallbacks"] == {}
        assert info["effective_mode"] == "fastforward"
        assert event.total_hits == fastforward.total_hits
        assert event.metrics == fastforward.metrics

    def test_fast_clients_counts_session_slots(self):
        """``fast_clients`` is the trace lane's session-slot count, not
        the nominal ``total_clients`` the rate was derived from."""
        config = trace_config(duration=300.0, trace_rate=2.0)
        sim = Simulation(config, engine_mode="fastforward")
        sim.run()
        slots = sim.population.shard_stats()["session_slots"]
        assert slots > 0
        assert slots != config.total_clients
        assert sim.engine_info["fast_clients"] == slots
        event = Simulation(config, engine_mode="event")
        event.run()
        assert event.engine_info["fast_clients"] == 0

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            (dict(geography="random"), "geography"),
            (dict(hot_rotation_interval=60.0), "dynamic-domains"),
        ],
    )
    def test_ineligible_configs_fall_back_and_match_event(
        self, overrides, reason
    ):
        config = trace_config(duration=300.0, **overrides)
        event = run_simulation(config, engine_mode="event")
        sim = Simulation(config, engine_mode="fastforward")
        fastforward = sim.run()
        info = sim.engine_info
        assert info["fallbacks"] == {reason: 1}
        assert info["effective_mode"] == "event"
        assert info["fast_clients"] == 0
        assert event.total_hits == fastforward.total_hits
        assert event.metrics == fastforward.metrics


class TestSlotPool:
    def test_slots_bounded_by_concurrency_not_arrivals(self):
        config = trace_config(trace_rate=2.0)
        sim = Simulation(config)
        result = sim.run()
        stats = sim.population.shard_stats()
        assert result.total_sessions > stats["session_slots"]
        assert stats["peak_active_sessions"] <= stats["session_slots"]


class TestConfigValidation:
    def test_bad_source_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(workload_source="mystery")

    def test_bad_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            trace_config(trace_profile="square-wave")

    def test_replay_requires_path(self):
        with pytest.raises(ConfigurationError):
            trace_config(trace_profile="replay")

    def test_caching_incompatible(self):
        # Trace sessions are fresh client identities; a per-client
        # address cache has no meaning for them.
        with pytest.raises(ConfigurationError):
            trace_config(client_address_caching=True)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            trace_config(trace_rate=-1.0)

    def test_amplitude_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            trace_config(trace_amplitude=1.5)
