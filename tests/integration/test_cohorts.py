"""Workload cohorts: a batch's shared client workload, drawn once.

The local batch path groups cells equal in every field the client
population reads into a cohort, records their workload once
(:meth:`~repro.workload.tape.WorkloadTape.record`) and replays it under
each member's own policy. A member must equal its per-cell run bit for
bit: results, figure JSON, dispatch counts and the interleaving of
client wakes with the monitor's windows, ties at equal times included.
"""

import bisect
import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments import figures
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import (
    MAX_TAPE_WAKES,
    ParallelExecutor,
    cohorts,
)
from repro.experiments.persistence import figure_to_dict
from repro.experiments.simulation import Simulation, record_tape, run_simulation
from repro.obs.progress import JsonlProgressSink
from repro.obs.spans import COMPLETE, LEASE, FabricTimeline, load_span_logs

DURATION = 600.0


def fingerprint(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True, default=repr)


class PerCellExecutor(ParallelExecutor):
    """The reference: every cell alone, through ``run_simulation``."""

    def run_simulations(self, configs, labels=None):
        return [run_simulation(config) for config in configs]


def figure_json(figure_fn, executor) -> str:
    figure = figure_fn(duration=DURATION, seed=1, executor=executor)
    return json.dumps(figure_to_dict(figure), sort_keys=True)


FIGURES = {
    "fig1": (figures.fig1, figures.FIG1_POLICIES, 20),
    "fig2": (figures.fig2, figures.FIG2_POLICIES, 35),
}


def figure_configs(name):
    _, policies, heterogeneity = FIGURES[name]
    base = SimulationConfig(
        duration=DURATION, seed=1, heterogeneity=heterogeneity
    )
    return [base.replace(policy=policy) for policy in policies]


@pytest.mark.parametrize("name", sorted(FIGURES))
class TestFigures:
    def test_one_cohort_per_figure(self, name):
        configs = figure_configs(name)
        units = cohorts(configs, "fastforward")
        assert [[index for index, _ in unit] for unit in units] == [
            list(range(len(configs)))
        ]

    def test_cells_match_per_cell_runs(self, name):
        configs = figure_configs(name)
        executor = ParallelExecutor()
        cohort = executor.run_simulations(configs)
        assert [fingerprint(r) for r in cohort] == [
            fingerprint(run_simulation(config)) for config in configs
        ]
        assert executor.last_stats.cell_count == len(configs)

    def test_figure_json_matches_per_cell_runs(self, name):
        figure_fn = FIGURES[name][0]
        assert figure_json(figure_fn, ParallelExecutor()) == figure_json(
            figure_fn, PerCellExecutor()
        )


def test_pool_of_two_matches_per_cell_runs():
    # Two workers split the cohort in two units, each with its own pass.
    configs = figure_configs("fig1")
    assert len(cohorts(configs, "fastforward", parts=2)) == 2
    assert figure_json(
        figures.fig1, ParallelExecutor(workers=2)
    ) == figure_json(figures.fig1, PerCellExecutor())


def test_span_log_has_one_lease_and_one_winner_per_cell(tmp_path):
    path = tmp_path / "spans.jsonl"
    configs = figure_configs("fig1")[:4]
    sink = JsonlProgressSink(path)
    try:
        ParallelExecutor(progress=sink).run_simulations(
            configs, labels=[config.policy for config in configs]
        )
    finally:
        sink.close()
    events, skipped = load_span_logs([path])
    assert skipped == 0
    for kind in (LEASE, COMPLETE):
        cells = sorted(event.cell for event in events if event.kind == kind)
        assert cells == list(range(len(configs)))
    timeline = FabricTimeline.from_events(events)
    assert timeline.reconcile().ok
    assert all(
        timeline.cells[index].winning_attempt() is not None
        for index in range(len(configs))
    )


class TestUnits:
    def test_cells_that_must_run_alone(self):
        base = SimulationConfig(duration=DURATION)
        alone = [
            base.replace(trace=True),
            base.replace(workload_source="trace"),
            base.replace(geography="random"),
            base.replace(client_address_caching=True),
            base.replace(hot_rotation_interval=60.0, hot_rotation_count=2),
        ]
        configs = [base, base.replace(policy="DAL")] + alone
        units = cohorts(configs, "fastforward")
        assert [[index for index, _ in unit] for unit in units] == [
            [0, 1], [2], [3], [4], [5], [6]
        ]
        # A tape past MAX_TAPE_WAKES would outweigh the runs it saves.
        huge = base.replace(
            total_clients=MAX_TAPE_WAKES // 100 + 1,
            duration=100.0 * base.mean_think_time,
        )
        units = cohorts([huge, huge.replace(policy="DAL")], "fastforward")
        assert [len(unit) for unit in units] == [1, 1]
        assert all(len(unit) == 1 for unit in cohorts(configs, "event"))

    def test_cohort_key_reads_only_the_workload_fields(self):
        base = SimulationConfig(duration=DURATION)
        same = [
            base,
            base.replace(policy="IDEAL"),
            base.replace(heterogeneity=65, min_accepted_ttl=60.0),
            base.replace(workload_error=0.3, estimator="measured"),
            base.replace(population="lazy", shard_size=7),
            base.replace(hits_per_page=[5, 15]),
        ]
        other = [
            base.replace(seed=2),
            base.replace(total_clients=400),
            base.replace(mean_think_time=10.0),
            base.replace(mean_pages_per_session=5.0),
            base.replace(hits_per_page=(1, 3)),
            base.replace(duration=300.0),
        ]
        units = cohorts(same + other, "fastforward")
        assert len(units) == 1 + len(other)
        assert len(units[0]) == len(same)

    def test_units_interleave_with_lone_cells_in_index_order(self):
        base = SimulationConfig(duration=120.0, total_clients=60)
        configs = [
            base,
            base.replace(seed=5),
            base.replace(policy="DAL"),
            base.replace(seed=5, policy="IDEAL"),
            base.replace(trace=True),
        ]
        executor = ParallelExecutor()
        results = executor.run_simulations(configs)
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_simulation(config)) for config in configs
        ]
        assert executor.last_stats.cell_count == len(configs)


POLICIES = [
    "IDEAL",
    "RR",
    "RR2",
    "DAL",
    "MRL",
    "RANDOM",
    "WRR",
    "DRR2-TTL/S_K",
    "DRR-TTL/S_1",
    "PRR-TTL/K",
    "PRR2-TTL/2",
]

base_configs = st.builds(
    SimulationConfig,
    duration=st.sampled_from([120.0, 240.0]),
    total_clients=st.sampled_from([30, 120]),
    domain_count=st.sampled_from([5, 20]),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    estimator=st.sampled_from(["oracle", "measured", "window"]),
    mean_pages_per_session=st.sampled_from([20.0, 1.0]),
    hits_per_page=st.sampled_from([(5, 15), (1, 1), (4, 7)]),
    utilization_interval=st.sampled_from([8.0, 32.0]),
)


@given(
    base=base_configs,
    members=st.lists(
        st.tuples(
            st.sampled_from(POLICIES),
            st.sampled_from([0, 20, 50]),
            st.sampled_from([0.0, 60.0]),
            st.sampled_from([0.0, 0.25]),
        ),
        min_size=2,
        max_size=4,
    ),
    stranger=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_cohorts_match_per_cell_runs(base, members, stranger):
    configs = [
        base.replace(
            policy=policy,
            heterogeneity=heterogeneity,
            min_accepted_ttl=min_ttl,
            workload_error=error,
        )
        for policy, heterogeneity, min_ttl, error in members
    ]
    if stranger:
        # A cell of another seed between the members runs on its own.
        configs.insert(1, base.replace(seed=base.seed + 1))
    results = ParallelExecutor().run_simulations(configs)
    assert [fingerprint(r) for r in results] == [
        fingerprint(run_simulation(config)) for config in configs
    ]


class TestReplay:
    def test_member_dispatch_count_matches_per_cell_run(self):
        config = SimulationConfig(duration=300.0, policy="DAL")
        tape = record_tape(config)
        member = Simulation(config, _tape=tape)
        alone = Simulation(config)
        assert fingerprint(member.run()) == fingerprint(alone.run())
        assert member.env.dispatched == alone.env.dispatched
        assert member.env._eid == alone.env._eid
        assert member.population.total_pages == tape.wakes

    def test_tape_entries_at_monitor_ticks(self):
        # Move one tape entry onto each monitor tick. Whether the client
        # or the window goes first is then decided by their heap keys:
        # the client's eid came from its previous wake, the window's
        # from the previous tick. The replay drain must dispatch them in
        # that order, as the engine's one-entry-at-a-time step does.
        interval = 32.0
        config = SimulationConfig(
            duration=600.0,
            seed=3,
            total_clients=60,
            utilization_interval=interval,
        )
        tape = record_tape(config)
        times, slots, hits = tape.times, tape.slots, tape.hits
        expected = {}
        client_first = set()
        tick = interval
        while tick < config.duration:
            k = bisect.bisect_right(times, tick)
            assert times[k - 1] < tick < times[k]
            times[k] = tick
            previous = [j for j in range(k) if slots[j] == slots[k]]
            filed_at = times[previous[-1]] if previous else 0.0
            first = filed_at < tick - interval
            client_first.add(first)
            expected[tick] = sum(abs(h) for h in hits[:k]) + (
                abs(hits[k]) if first else 0
            )
            tick += interval
        assert client_first == {True, False}

        def observed(stepped):
            sim = Simulation(config, _tape=tape)
            seen = {}
            sink = sim.monitor.sample_sink

            def spy(now, utilizations):
                seen[now] = sim.population.total_hits
                sink(now, utilizations)

            sim.monitor.sample_sink = spy
            if stepped:
                sim.env.run_events(10**9, until=config.duration)
            return fingerprint(sim.run()), seen

        drained, drained_seen = observed(stepped=False)
        stepped, stepped_seen = observed(stepped=True)
        assert drained == stepped
        assert drained_seen == stepped_seen
        assert {t: drained_seen[t] for t in expected} == expected

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"total_clients": 499},
            {"mean_think_time": 14.0},
            {"mean_pages_per_session": 19.0},
            {"hits_per_page": (5, 14)},
            {"duration": 301.0},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_header_mismatch_raises(self, change):
        config = SimulationConfig(duration=300.0)
        tape = record_tape(config)
        with pytest.raises(SimulationError, match="does not match"):
            Simulation(config.replace(**change), _tape=tape)

    @pytest.mark.parametrize(
        "change",
        [
            {"trace": True},
            {"geography": "random"},
            {"client_address_caching": True},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_ineligible_member_raises(self, change):
        config = SimulationConfig(duration=300.0)
        with pytest.raises(SimulationError, match="cannot replay"):
            Simulation(config.replace(**change), _tape=record_tape(config))

    def test_event_engine_member_raises(self):
        config = SimulationConfig(duration=300.0)
        with pytest.raises(SimulationError, match="cannot replay"):
            Simulation(config, "event", _tape=record_tape(config))

    def test_replay_past_the_tape_raises(self):
        config = SimulationConfig(duration=300.0)
        sim = Simulation(config, _tape=record_tape(config))
        sim.run()
        with pytest.raises(SimulationError, match="tape ends"):
            sim.env.run(until=400.0)
