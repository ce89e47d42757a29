"""Unit tests for repro.workload.trace."""

import json
import math
from heapq import heappush

import pytest

from repro.core.estimator import OracleEstimator
from repro.core.round_robin import RoundRobinScheduler
from repro.core.state import SchedulerState
from repro.core.ttl.constant import ConstantTtlPolicy
from repro.dns.authoritative import AuthoritativeDns
from repro.dns.resolver import ResolutionChain
from repro.errors import ConfigurationError
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.fastforward import FastForwardEnvironment
from repro.sim.rng import RandomStreams
from repro.web.cluster import ServerCluster
from repro.workload.domains import DomainSet
from repro.workload.sessions import SessionModel
from repro.workload.trace import ArrivalSchedule, TraceDrivenPopulation


def build_population(env, domain_count=4, seed=1, **kwargs):
    """A trace source at a constant 1 session/s with the paper's model."""
    cluster = ServerCluster.from_heterogeneity(20)
    domains = DomainSet.pure_zipf(domain_count)
    state = SchedulerState(cluster, OracleEstimator(domains.shares))
    dns = AuthoritativeDns(
        RoundRobinScheduler(state), ConstantTtlPolicy(100.0)
    )
    chain = ResolutionChain(dns, domain_count)
    return TraceDrivenPopulation(
        env, cluster, chain, domains, SessionModel(),
        ArrivalSchedule.constant(1.0), RandomStreams(seed), **kwargs,
    )


class TestScheduleConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([])

    def test_first_breakpoint_must_be_zero(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(5.0, 1.0)])

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 1.0), (10.0, 2.0), (10.0, 3.0)])

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, -1.0)])

    def test_infinite_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, math.inf)])

    def test_all_zero_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 0.0), (10.0, 0.0)])

    @pytest.mark.parametrize(
        "breakpoints",
        [[(0.0, 1.0), (math.nan, 50.0), (10.0, 2.0)], [(0.0, 1.0), (math.inf, 50.0)]],
        ids=["nan", "inf"],
    )
    def test_non_finite_breakpoint_time_rejected(self, breakpoints):
        # A NaN time passes the increasing check and made rate_at(0.5)
        # read the NaN segment's 50.0; an infinite one set the thinning
        # peak to a rate the schedule never reaches.
        with pytest.raises(ConfigurationError, match="must be finite"):
            ArrivalSchedule(breakpoints)

    @pytest.mark.parametrize("period", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_period_rejected(self, period):
        # A NaN period made rate_at(0.5) wrap into the second segment.
        with pytest.raises(ConfigurationError, match="finite period"):
            ArrivalSchedule(
                [(0.0, 1.0), (5.0, 2.0)], periodic=True, period=period
            )

    @pytest.mark.parametrize(
        "breakpoints",
        [[("0", "1")], [(0.0, 1.0), ("5", 2.0)], [(0.0, 1.0), (5.0, True)],
         [(False, 1.0)], [(0.0, None)]],
        ids=["strings", "string-time", "bool-rate", "bool-time", "none-rate"],
    )
    def test_non_real_breakpoint_rejected(self, breakpoints):
        # Numeric strings and bools must not pass as a valid schedule.
        with pytest.raises(ConfigurationError, match="must be a real number"):
            ArrivalSchedule(breakpoints)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("period", ["x", "10", True, [10.0]])
    def test_non_real_period_rejected(self, period, periodic):
        # Checked even when unused, and typed: never a bare TypeError.
        with pytest.raises(ConfigurationError, match="period must be"):
            ArrivalSchedule(
                [(0.0, 1.0), (5.0, 2.0)], periodic=periodic, period=period
            )

    def test_periodic_needs_period_past_last_breakpoint(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule([(0.0, 1.0), (10.0, 2.0)], periodic=True)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule(
                [(0.0, 1.0), (10.0, 2.0)], periodic=True, period=10.0
            )


class TestRateLookup:
    def test_piecewise_constant_steps(self):
        schedule = ArrivalSchedule([(0.0, 1.0), (10.0, 3.0), (20.0, 0.5)])
        assert schedule.rate_at(0.0) == 1.0
        assert schedule.rate_at(9.999) == 1.0
        assert schedule.rate_at(10.0) == 3.0
        assert schedule.rate_at(19.0) == 3.0
        assert schedule.rate_at(20.0) == 0.5
        assert schedule.rate_at(1e9) == 0.5

    def test_negative_time_clamps_to_start(self):
        schedule = ArrivalSchedule([(0.0, 2.0), (10.0, 4.0)])
        assert schedule.rate_at(-5.0) == 2.0

    def test_periodic_wraps(self):
        schedule = ArrivalSchedule(
            [(0.0, 1.0), (50.0, 3.0)], periodic=True, period=100.0
        )
        assert schedule.rate_at(25.0) == 1.0
        assert schedule.rate_at(75.0) == 3.0
        assert schedule.rate_at(125.0) == 1.0
        assert schedule.rate_at(175.0) == 3.0

    def test_peak_rate(self):
        schedule = ArrivalSchedule([(0.0, 1.0), (10.0, 3.0), (20.0, 0.5)])
        assert schedule.peak_rate == 3.0


class TestBuilders:
    def test_constant(self):
        schedule = ArrivalSchedule.constant(2.5)
        assert schedule.profile == "constant"
        assert schedule.rate_at(0.0) == 2.5
        assert schedule.rate_at(1e6) == 2.5

    def test_ramp_monotone_and_bounded(self):
        schedule = ArrivalSchedule.ramp(1.0, 5.0, 100.0)
        assert schedule.profile == "ramp"
        rates = [schedule.rate_at(t) for t in range(0, 140, 5)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[0] == 1.0
        assert rates[-1] == 5.0
        assert schedule.rate_at(1e6) == 5.0

    def test_ramp_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.ramp(1.0, 5.0, 0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.ramp(1.0, 5.0, 100.0, segments=0)

    def test_diurnal_wave_shape(self):
        schedule = ArrivalSchedule.diurnal(2.0, 0.5, 3600.0)
        assert schedule.profile == "diurnal"
        assert schedule.periodic
        assert schedule.period == 3600.0
        # Peak in the first half of the wave, trough in the second.
        assert schedule.rate_at(900.0) > 2.0
        assert schedule.rate_at(2700.0) < 2.0
        # Wraps a full period later.
        assert schedule.rate_at(900.0) == schedule.rate_at(4500.0)
        assert schedule.peak_rate <= 2.0 * 1.5

    def test_diurnal_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 1.5, 3600.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 0.5, 0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.diurnal(2.0, 0.5, 3600.0, segments=1)


class TestReplay:
    def test_from_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [
            {"t": 0.0, "rate": 1.0},
            {"t": 60.0, "rate": 4.0},
            {"t": 120.0, "rate": 2.0},
        ]
        path.write_text(
            "\n".join(json.dumps(line) for line in lines) + "\n\n"
        )
        schedule = ArrivalSchedule.from_jsonl(str(path))
        assert schedule.profile == "replay"
        assert schedule.rate_at(30.0) == 1.0
        assert schedule.rate_at(90.0) == 4.0
        assert schedule.peak_rate == 4.0

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "rate": 1.0}\nnot json\n')
        with pytest.raises(ConfigurationError, match=":2"):
            ArrivalSchedule.from_jsonl(str(path))

    @pytest.mark.parametrize(
        "lines, line_number",
        [
            (['{"t": "0", "rate": true}', '{"t": 10, "rate": "2.5"}'], 1),
            (['{"t": 0, "rate": 1.0}', '{"t": 10, "rate": "2.5"}'], 2),
        ],
        ids=["string-time-bool-rate", "string-rate"],
    )
    def test_mistyped_field_rejected_naming_the_line(
        self, tmp_path, lines, line_number
    ):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(
            ConfigurationError, match=f"trace.jsonl:{line_number}: replay line field"
        ):
            ArrivalSchedule.from_jsonl(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0}\n')
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.from_jsonl(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n")
        with pytest.raises(ConfigurationError):
            ArrivalSchedule.from_jsonl(str(path))


class TestDescribe:
    def test_provenance_summary(self):
        schedule = ArrivalSchedule.diurnal(2.0, 0.5, 3600.0, segments=12)
        described = schedule.describe()
        assert described["profile"] == "diurnal"
        assert described["breakpoints"] == 12
        assert described["periodic"] is True
        assert described["period"] == 3600.0
        assert described["peak_rate"] == schedule.peak_rate


class TestPopulationSetup:
    @pytest.mark.parametrize("shard_size", [0, -3])
    def test_shard_size_below_one_rejected(self, env, shard_size):
        with pytest.raises(ConfigurationError, match="shard_size"):
            build_population(env, shard_size=shard_size)

    def test_fluid_lane_builds_no_session_wakes(self):
        env = FastForwardEnvironment()
        population = build_population(env, shard_count=3)
        assert population.engine == "fluid"
        env.run(until=120.0)
        stats = population.shard_stats()
        assert stats["session_slots"] == len(population._remaining) > 0
        assert population._wakes == []
        assert len(env._queue) == 1


class TestFastLaneCalendar:
    """The fluid lane's calendar keeps the engine's ``(time, key)`` order."""

    def started(self, env):
        """A fluid-eligible source past its three shard init entries."""
        population = build_population(env, seed=3, shard_count=3)
        env.run_events(3)
        return population

    def observe_tie(self, env, time, key):
        """Fire a foreign entry at ``(time, key)``; return what the
        source's counters read when it fires."""
        population = self.started(env)
        seen = []
        foreign = Event(env)
        foreign._callbacks = [
            lambda event: seen.append(
                (population.total_arrivals, population.total_pages)
            )
        ]
        heappush(env._queue, (time, key, foreign))
        env.run(until=time + 60.0)
        return population.engine, seen

    @pytest.mark.parametrize("offset", [-1, 1], ids=["before", "after"])
    def test_foreign_entry_at_a_wake_time_is_ordered_by_key(self, offset):
        # The tie is with the second pending arrival candidate, so the
        # fast lane meets it inside a drain, after dispatching the first;
        # at a constant rate every candidate is accepted.
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
