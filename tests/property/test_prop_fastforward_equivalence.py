"""Hypothesis equivalence harness: fast-forward vs reference engine.

The fast-forward mode's contract is *bit-identity*: for every
configuration, the hybrid fluid/event engine must reproduce the
reference engine's trajectory exactly — same results, same checkpoint
digests — either by draining client wakes natively (eligible configs)
or by falling back to reference event-stepping (ineligible ones).

These properties drive randomly drawn configurations through both
modes and compare (a) the full serialized result and (b) the canonical
state digest at a mid-run cut, including a crash/resume under
fast-forward that must land on the digests an uninterrupted event run
produces. A single RNG draw out of order, one float op reassociated,
or one eid allocated differently anywhere in the fluid lane fails
these as a value diff.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.checkpointing import resume_run, run_with_checkpoints
from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import state_digest

#: Policies spanning the scheduler space: static, two-tier static,
#: adaptive TTL in both tiers, and the oracle bound.
POLICIES = ["RR", "RR2", "DRR-TTL/S_K", "DRR2-TTL/S_K", "IDEAL"]

#: Session-model edge cases of the fast lane's session kernel, next to
#: the paper's values: one page per session takes the degenerate
#: geometric branch (p == 1); hit ranges of width 1 and of a power-of-two
#: width 4 are the edges of the getrandbits rejection loop.
PAGES_MEANS = st.sampled_from([20.0, 1.0])
HITS_RANGES = st.sampled_from([(5, 15), (1, 1), (4, 7)])

#: Short-but-complete runs: several monitor windows and estimator
#: collections, hundreds of sessions — enough dispatches that any
#: divergence in draw order or float arithmetic has surfaced.
configs = st.builds(
    SimulationConfig,
    policy=st.sampled_from(POLICIES),
    heterogeneity=st.sampled_from([0, 20, 35, 50]),
    duration=st.sampled_from([120.0, 240.0]),
    total_clients=st.sampled_from([50, 120]),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    workload_error=st.sampled_from([0.0, 0.25]),
    estimator=st.sampled_from(["oracle", "measured"]),
    mean_pages_per_session=PAGES_MEANS,
    hits_per_page=HITS_RANGES,
)


#: The open trace source on its fast lane: every arrival profile, a
#: small ``shard_size`` so the arrivals come from several shards, and
#: tracing on so the session records are compared too.
trace_configs = st.builds(
    SimulationConfig,
    policy=st.sampled_from(POLICIES),
    heterogeneity=st.sampled_from([0, 35]),
    duration=st.sampled_from([120.0, 240.0]),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    estimator=st.sampled_from(["oracle", "measured"]),
    workload_source=st.just("trace"),
    trace_profile=st.sampled_from(["constant", "ramp", "diurnal"]),
    trace_rate=st.sampled_from([1.0, 3.0]),
    trace_period=st.just(120.0),
    shard_size=st.sampled_from([4, 16]),
    trace=st.just(True),
    mean_pages_per_session=PAGES_MEANS,
    hits_per_page=HITS_RANGES,
)


def result_fingerprint(result) -> str:
    """Exact serialized form of a result (floats via repr: lossless)."""
    return json.dumps(
        dataclasses.asdict(result), sort_keys=True, default=repr
    )


def assert_same_result(expected, actual):
    """The two results serialize identically; a failure names the fields.

    A traced result serializes to tens of kilobytes on one line, and
    pytest's string diff of two such lines takes minutes, so a mismatch
    is reported by field name instead.
    """
    if result_fingerprint(expected) == result_fingerprint(actual):
        return
    left = dataclasses.asdict(expected)
    right = dataclasses.asdict(actual)
    differing = [
        name
        for name in sorted(left)
        if json.dumps(left[name], sort_keys=True, default=repr)
        != json.dumps(right[name], sort_keys=True, default=repr)
    ]
    pytest.fail(f"results differ in {differing}")


common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_results_identical(config):
    event = run_simulation(config, engine_mode="event")
    fastforward = run_simulation(config, engine_mode="fastforward")
    assert_same_result(event, fastforward)


def assert_midrun_digests_agree(config):
    """The canonical state digest agrees at a mid-run cut.

    Digests cover engine position (clock, eid counter, queue census),
    RNG stream states and model state — so agreement here is much
    stronger than result agreement: the two modes are in the same state
    mid-flight, not merely at the finish line.
    """
    cut = config.duration / 2
    sims = []
    for mode in ("event", "fastforward"):
        sim = Simulation(config, engine_mode=mode)
        sim.advance(cut)
        sims.append(sim)
    event_sim, fastforward_sim = sims
    assert state_digest(event_sim.snapshot_state()) == state_digest(
        fastforward_sim.snapshot_state()
    )
    # And both finish to the same result from that shared state.
    event_sim.advance(config.duration)
    fastforward_sim.advance(config.duration)
    assert_same_result(event_sim.collect(), fastforward_sim.collect())


def assert_crash_resume_matches_event_run(directory, config, halt_fraction):
    """Crash a fast-forward run mid-flight; the digest-verified resume
    must finish on the exact result of an uninterrupted reference-engine
    run."""
    halted = run_with_checkpoints(
        config,
        every=config.duration / 4,
        directory=directory,
        halt_at=config.duration * halt_fraction,
        engine_mode="fastforward",
    )
    assert halted is None, "the run must halt at the requested cut"
    resumed = resume_run(directory)
    reference = run_simulation(config, engine_mode="event")
    assert_same_result(reference, resumed)


resume_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


class TestTrajectoryEquivalence:
    @given(configs)
    @common
    def test_results_are_bit_identical(self, config):
        assert_results_identical(config)

    @given(configs)
    @common
    def test_midrun_state_digests_agree(self, config):
        assert_midrun_digests_agree(config)


class TestCheckpointEquivalence:
    @given(
        configs,
        st.sampled_from([0.25, 0.5, 0.75]),
    )
    @resume_settings
    def test_fastforward_crash_resume_matches_event_run(
        self, tmp_path_factory, config, halt_fraction
    ):
        assert_crash_resume_matches_event_run(
            tmp_path_factory.mktemp("ff-resume"), config, halt_fraction
        )


class TestTraceSourceEquivalence:
    """The trace source's fast lane against its event-mode handlers."""

    @given(trace_configs)
    @common
    def test_results_are_bit_identical(self, config):
        assert_results_identical(config)

    @given(trace_configs)
    @common
    def test_midrun_state_digests_agree(self, config):
        assert_midrun_digests_agree(config)

    @given(trace_configs, st.sampled_from([0.25, 0.5, 0.75]))
    @resume_settings
    def test_fastforward_crash_resume_matches_event_run(
        self, tmp_path_factory, config, halt_fraction
    ):
        assert_crash_resume_matches_event_run(
            tmp_path_factory.mktemp("trace-resume"), config, halt_fraction
        )


#: Sharded-population sizes for the event-count cuts: one client, a few,
#: and enough that the client calendar spans many time buckets, both in
#: the t=0 start phase and over the run.
SHARDED_SIZES = [1, 3, 40, 1500]


def sharded_config(clients: int) -> SimulationConfig:
    return SimulationConfig(
        policy="DRR2-TTL/S_K",
        heterogeneity=35,
        duration=120.0,
        total_clients=clients,
        total_capacity=max(1.0, clients * 1.5),
        population="lazy",
        estimator="measured",
        seed=7,
    )


_sharded_references: dict = {}


def sharded_reference(clients: int):
    """``(event result, fast-forward result, start-phase end, total)``.

    The start phase ends at the dispatch count where the population's
    last urgent init entry has been dispatched; ``total`` is the run's
    whole dispatch count.
    """
    if clients not in _sharded_references:
        config = sharded_config(clients)
        event = run_simulation(config, engine_mode="event")
        sim = Simulation(config, engine_mode="fastforward")
        population = sim.population
        assert population.engine == "fluid"
        while population._next_init < clients:
            sim.env.step()
        boundary = sim.env.dispatched
        fastforward = sim.run()
        _sharded_references[clients] = (
            event, fastforward, boundary, sim.env.dispatched
        )
    return _sharded_references[clients]


class TestShardedEventCuts:
    """``run_events`` cuts through the sharded population's fast lane.

    The fast lane keeps all but one of its client wakes off the engine
    heap, so these pin that ``dispatched`` still counts every wake, and
    that a cut after any ``k`` dispatches — inside the t=0 start phase,
    at its end, or mid-run — is the reference engine's state after
    ``k`` dispatches and finishes on the uninterrupted result.
    """

    @settings(max_examples=30, deadline=None)
    @given(clients=st.sampled_from(SHARDED_SIZES), data=st.data())
    def test_cut_after_k_events_matches_the_uninterrupted_runs(
        self, clients, data
    ):
        event, fastforward, boundary, total = sharded_reference(clients)
        assert_same_result(event, fastforward)
        phase = data.draw(st.sampled_from(["start", "boundary", "mid"]))
        if phase == "start":
            k = data.draw(st.integers(0, boundary - 1))
        elif phase == "boundary":
            k = boundary
        else:
            k = data.draw(st.integers(boundary + 1, total))
        config = sharded_config(clients)
        sims = []
        for mode in ("event", "fastforward"):
            sim = Simulation(config, engine_mode=mode)
            assert sim.env.run_events(k, until=config.duration) == k
            assert sim.env.dispatched == k
            sims.append(sim)
        event_sim, fastforward_sim = sims
        assert state_digest(fastforward_sim.snapshot_state()) == state_digest(
            event_sim.snapshot_state()
        )
        assert_same_result(fastforward, fastforward_sim.run())


#: Trace-source shapes for the event-count cuts: one arrival shard, and
#: the 64-shard maximum under a constant and a diurnal rate, whose urgent
#: init entries make a long first stretch of calendar entries.
TRACE_CUT_CASES = {
    "one-shard": dict(trace_profile="constant", trace_rate=1.0),
    "constant-64-shards": dict(
        trace_profile="constant", trace_rate=1.0, shard_size=4
    ),
    "diurnal-64-shards": dict(
        trace_profile="diurnal", trace_rate=3.0, shard_size=16
    ),
}


def trace_cut_config(case: str) -> SimulationConfig:
    return SimulationConfig(
        policy="DRR2-TTL/S_K",
        heterogeneity=35,
        duration=120.0,
        workload_source="trace",
        trace_period=120.0,
        estimator="measured",
        seed=11,
        **TRACE_CUT_CASES[case],
    )


_trace_references: dict = {}


def trace_reference(case: str):
    """``(event result, fast-forward result, cut points, total)``.

    Steps a fast-forward run one dispatch at a time and records where
    the cuts fall: ``"init"`` holds every count before the last arrival
    shard's urgent init entry has been dispatched, ``"falls"`` the
    counts right after a dispatch that lowered the calendar's held
    count (a session's last page), ``"rises"`` those right after one
    that raised it (an accepted arrival whose session goes on).
    """
    if case not in _trace_references:
        config = trace_cut_config(case)
        event = run_simulation(config, engine_mode="event")
        sim = Simulation(config, engine_mode="fastforward")
        env = sim.env
        population = sim.population
        assert population.engine == "fluid"
        calendar = population._calendar
        points = {"init": [], "falls": [], "rises": []}
        while env.peek() <= config.duration:
            if not all(population._shard_started):
                points["init"].append(env.dispatched)
            held = calendar.held
            env.step()
            if calendar.held < held:
                points["falls"].append(env.dispatched)
            elif calendar.held > held:
                points["rises"].append(env.dispatched)
        fastforward = sim.run()
        _trace_references[case] = (
            event, fastforward, points, env.dispatched
        )
    return _trace_references[case]


class TestTraceEventCuts:
    """``run_events`` cuts through the trace source's fast lane.

    The fast lane keeps the arrival shards' and sessions' wakes off the
    engine heap, and the number it holds there changes as sessions end
    and arrivals start new ones. These pin that ``dispatched`` still
    counts every wake, and that a cut after ``k`` dispatches — among the
    shard init entries, right after a session ends or right after an
    accepted arrival — is the reference engine's state after ``k``
    dispatches and finishes on the uninterrupted result.
    """

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(TRACE_CUT_CASES)), data=st.data())
    def test_cut_after_k_events_matches_the_uninterrupted_runs(
        self, case, data
    ):
        event, fastforward, points, total = trace_reference(case)
        assert_same_result(event, fastforward)
        phase = data.draw(st.sampled_from(["init", "falls", "rises"]))
        assert points[phase], f"{case} has no {phase} cut point"
        k = data.draw(st.sampled_from(points[phase]))
        config = trace_cut_config(case)
        sims = []
        for mode in ("event", "fastforward"):
            sim = Simulation(config, engine_mode=mode)
            assert sim.env.run_events(k, until=config.duration) == k
            assert sim.env.dispatched == k
            sims.append(sim)
        event_sim, fastforward_sim = sims
        assert state_digest(fastforward_sim.snapshot_state()) == state_digest(
            event_sim.snapshot_state()
        )
        assert_same_result(event, fastforward_sim.run())
