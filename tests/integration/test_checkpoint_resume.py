"""Resume-equivalence harness: the checkpoint layer's proof of correctness.

A checkpoint here is a replay marker with a proof obligation (see
:mod:`repro.sim.checkpoint`): resuming rebuilds the simulation from the
recorded config, replays deterministically to the cut and verifies a
SHA-256 digest over the *entire* serializable model state — RNG
substream positions, DNS and NS cache contents and clocks, Welford
accumulators, alarm/monitor state, workload census, metrics registry —
before continuing. These tests turn that design into checked claims:

* an interrupted-then-resumed run returns a ``SimulationResult`` equal
  (dataclass equality — bit-equality of every float) to the
  uninterrupted run's, and its artifact bundle (result JSON, trace
  JSONL, Prometheus metrics) is **byte**-identical;
* the equivalence holds for arbitrary cut positions — Hypothesis drives
  cuts at arbitrary simulated times and at arbitrary *event counts*
  (via ``Environment.run_events``), and a stateful machine interleaves
  advancing, checkpointing and crash-replay at random;
* tampered state, a forged digest, a foreign engine version and an
  empty checkpoint directory all fail loudly instead of resuming
  wrongly.

The heavyweight randomized sweeps are marked ``slow`` (run with
``-m slow``; CI has a dedicated job) — the deterministic parity proofs
stay in tier 1.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import CheckpointError, CheckpointMismatchError
from repro.experiments.checkpointing import (
    make_cell_task,
    resume_run,
    run_checkpointed_cell,
    run_with_checkpoints,
    take_checkpoint,
    verify_checkpoint,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import (
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    state_digest,
    write_checkpoint,
)

pytestmark = pytest.mark.resume

#: Small but complete: adaptive policy, measured estimator (a periodic
#: collection process), alarms armed, tracing and series retention on —
#: every subsystem whose state a checkpoint must cover is exercised.
SMALL = dict(
    policy="DRR2-TTL/S_K",
    duration=180.0,
    seed=11,
    heterogeneity=50,
    domain_count=6,
    total_clients=40,
    estimator="measured",
    trace=True,
    keep_utilization_series=True,
)


def small_config(**overrides) -> SimulationConfig:
    return SimulationConfig(**{**SMALL, **overrides})


@pytest.fixture(scope="module")
def straight_result():
    """The uninterrupted reference run every parity test compares to."""
    return run_simulation(small_config())


# -- deterministic parity proofs (tier 1) ------------------------------------


def test_uninterrupted_checkpointed_run_matches_plain(
    tmp_path, straight_result
):
    """Checkpointing observes the run without perturbing it."""
    result = run_with_checkpoints(
        small_config(), every=40.0, directory=tmp_path
    )
    assert result == straight_result
    names = [path.name for path in list_checkpoints(tmp_path)]
    assert names == [f"checkpoint-{k:06d}.json" for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("halt_at", [1.0, 75.0, 160.0])
def test_halted_then_resumed_run_is_bit_identical(
    tmp_path, straight_result, halt_at
):
    """Crash at any checkpoint boundary; the stitched run is the run."""
    halted = run_with_checkpoints(
        small_config(), every=40.0, directory=tmp_path, halt_at=halt_at
    )
    assert halted is None, "halt_at must interrupt the run"
    resumed = resume_run(tmp_path)
    assert resumed == straight_result


def test_artifact_bundles_byte_identical(tmp_path, straight_result):
    """Not just equal objects: the on-disk bundles match byte for byte."""
    full_dir = tmp_path / "full"
    cut_dir = tmp_path / "cut"
    full = run_with_checkpoints(
        small_config(), every=40.0, directory=full_dir
    )
    assert full == straight_result
    assert (
        run_with_checkpoints(
            small_config(), every=40.0, directory=cut_dir, halt_at=80.0
        )
        is None
    )
    assert resume_run(cut_dir) == straight_result
    for name in ("run.json", "run.trace.jsonl", "run.metrics.prom"):
        assert (full_dir / name).read_bytes() == (
            cut_dir / name
        ).read_bytes(), f"{name} differs between full and resumed bundles"


def test_double_interruption_still_converges(tmp_path, straight_result):
    """A resumed run can itself crash and resume, indefinitely."""
    config = small_config()
    assert (
        run_with_checkpoints(
            config, every=20.0, directory=tmp_path, halt_at=20.0
        )
        is None
    )
    assert resume_run(tmp_path, halt_at=100.0) is None
    assert resume_run(tmp_path) == straight_result


def test_resume_continues_original_cadence(tmp_path):
    """Post-resume checkpoints land on the original boundary grid."""
    assert (
        run_with_checkpoints(
            small_config(), every=40.0, directory=tmp_path, halt_at=40.0
        )
        is None
    )
    assert resume_run(tmp_path) is not None
    sequences = [
        read_checkpoint(path).sequence for path in list_checkpoints(tmp_path)
    ]
    times = [
        read_checkpoint(path).time for path in list_checkpoints(tmp_path)
    ]
    assert sequences == [1, 2, 3, 4]
    assert times == [40.0, 80.0, 120.0, 160.0]


def test_executor_cell_runs_resumes_and_reloads(tmp_path, straight_result):
    """The grid-cell worker: fresh run, resume, completed-cell reload."""
    config = small_config()
    task = make_cell_task(config, tmp_path, 40.0)
    # Interrupt the cell out-of-band, then let the worker resume it.
    assert (
        run_with_checkpoints(
            config, every=40.0, directory=tmp_path, halt_at=80.0
        )
        is None
    )
    assert run_checkpointed_cell(task) == straight_result
    # A second call must reload the finished bundle — including the
    # trace — rather than recompute, and still compare equal.
    assert run_checkpointed_cell(task) == straight_result


def test_executor_cell_rejects_colliding_directory(tmp_path):
    """A cell directory holding a different config's run fails loudly."""
    config = small_config()
    assert (
        run_with_checkpoints(config, every=40.0, directory=tmp_path)
        is not None
    )
    other = small_config(seed=12)
    with pytest.raises(CheckpointMismatchError):
        run_checkpointed_cell(make_cell_task(other, tmp_path, 40.0))


# -- failure modes must fail loudly ------------------------------------------


def _halted_checkpoint_dir(tmp_path):
    assert (
        run_with_checkpoints(
            small_config(), every=40.0, directory=tmp_path, halt_at=40.0
        )
        is None
    )
    return list_checkpoints(tmp_path)[-1]


def test_resume_rejects_tampered_state(tmp_path):
    """Editing recorded state (digest recomputed) is caught by replay."""
    path = _halted_checkpoint_dir(tmp_path)
    data = json.loads(path.read_text())
    data["state"]["dns"]["resolutions"] += 1
    data["digest"] = state_digest(data["state"])
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointMismatchError) as excinfo:
        resume_run(tmp_path)
    assert excinfo.value.field == "state.dns"


def test_resume_rejects_forged_digest(tmp_path):
    path = _halted_checkpoint_dir(tmp_path)
    data = json.loads(path.read_text())
    data["digest"] = "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointMismatchError) as excinfo:
        resume_run(tmp_path)
    assert excinfo.value.field == "digest"


def test_resume_rejects_tampered_config(tmp_path):
    """An edited config no longer matches its recorded hash."""
    path = _halted_checkpoint_dir(tmp_path)
    data = json.loads(path.read_text())
    data["config"]["seed"] = 999
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointMismatchError) as excinfo:
        resume_run(tmp_path)
    assert excinfo.value.field == "config_hash"


def test_resume_rejects_foreign_engine_version(tmp_path):
    path = _halted_checkpoint_dir(tmp_path)
    data = json.loads(path.read_text())
    data["engine_version"] = "0.0.0"
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="0.0.0"):
        resume_run(tmp_path)


def test_resume_requires_checkpoints(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoints"):
        resume_run(tmp_path / "empty")


@pytest.mark.parametrize(
    "every", [float("nan"), float("inf"), 0.0], ids=["nan", "inf", "zero"]
)
def test_non_finite_or_zero_cadence_rejected(tmp_path, every):
    """A NaN cadence used to pass the check and hang the first advance."""
    with pytest.raises(CheckpointError, match="cadence"):
        run_with_checkpoints(small_config(), every=every, directory=tmp_path)
    assert not any(tmp_path.iterdir())


def test_checkpoint_file_roundtrip(tmp_path):
    """write -> read reproduces the Checkpoint dataclass exactly."""
    sim = Simulation(small_config())
    sim.advance(50.0)
    checkpoint = take_checkpoint(sim, sequence=1, every=50.0)
    path = write_checkpoint(checkpoint, tmp_path)
    assert read_checkpoint(path) == checkpoint
    assert latest_checkpoint(tmp_path) == checkpoint
    # And the replayed verify passes against the file's contents.
    replay = Simulation(small_config())
    replay.advance(50.0)
    verify_checkpoint(replay, read_checkpoint(path))


# -- randomized cut-point harness --------------------------------------------

#: A faster scenario for the Hypothesis sweeps (one simulation per
#: example): same subsystems, smaller population, shorter clock.
TINY = dict(SMALL, duration=120.0, total_clients=20, seed=23)

_tiny_cache = {}


def _tiny_reference():
    """Straight run of the TINY scenario (computed once per session)."""
    if "result" not in _tiny_cache:
        _tiny_cache["result"] = run_simulation(SimulationConfig(**TINY))
        probe = Simulation(SimulationConfig(**TINY))
        probe.advance(90.0)
        _tiny_cache["digest_at_90"] = state_digest(probe.snapshot_state())
    return _tiny_cache


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cuts=st.lists(
        st.floats(
            min_value=0.1,
            max_value=89.9,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_arbitrary_time_cuts_preserve_state_and_result(cuts):
    """Segmenting at *any* times changes neither state nor outcome."""
    reference = _tiny_reference()
    sim = Simulation(SimulationConfig(**TINY))
    for cut in sorted(cuts):
        sim.advance(cut)
    sim.advance(90.0)
    assert state_digest(sim.snapshot_state()) == reference["digest_at_90"]
    assert sim.run() == reference["result"]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=st.integers(min_value=0, max_value=3000))
def test_arbitrary_event_count_cuts_preserve_result(events):
    """Cutting after N *dispatched events* (not a time boundary) and
    continuing yields the uninterrupted result — the reference-dispatch
    cut primitive behind arbitrary-position checkpoint proofs."""
    reference = _tiny_reference()
    sim = Simulation(SimulationConfig(**TINY))
    dispatched = sim.env.run_events(events, until=TINY["duration"])
    assert dispatched <= events
    assert sim.run() == reference["result"]


class CheckpointResumeMachine(RuleBasedStateMachine):
    """Random interleaving of advancing, checkpointing and crash-replay.

    Two simulations of the same config march in lockstep; at any point
    the machine may "crash" one of them and replace it with a fresh
    replay (digest-verified against a checkpoint of the victim). The
    invariant — both full-state digests always agree — is exactly the
    claim that a resume is indistinguishable from never having crashed.
    """

    def __init__(self):
        super().__init__()
        self.config = SimulationConfig(**TINY)
        self.reference = Simulation(self.config)
        self.subject = Simulation(self.config)
        self.clock = 0.0

    @rule(delta=st.floats(min_value=0.5, max_value=25.0))
    def advance_both(self, delta):
        self.clock = min(self.clock + delta, self.config.duration)
        self.reference.advance(self.clock)
        self.subject.advance(self.clock)

    # Real checkpoints are only taken at boundaries >= the cadence > 0;
    # "constructed but never run" is not a replayable cut (run(until=0)
    # would dispatch the t=0 start events the constructor only queued).
    @precondition(lambda self: self.clock > 0.0)
    @rule()
    def crash_and_replay(self):
        checkpoint = take_checkpoint(self.subject, sequence=0, every=1.0)
        replacement = Simulation(self.config)
        replacement.advance(checkpoint.time)
        verify_checkpoint(replacement, checkpoint)
        self.subject = replacement

    @invariant()
    def digests_agree(self):
        assert state_digest(self.subject.snapshot_state()) == state_digest(
            self.reference.snapshot_state()
        )


CheckpointResumeMachine.TestCase.settings = settings(
    max_examples=6,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TestCheckpointResumeMachine = pytest.mark.slow(
    CheckpointResumeMachine.TestCase
)
