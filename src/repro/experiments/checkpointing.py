"""Checkpointed execution: segmented runs, simulated crashes, verified resume.

This is the model-aware half of checkpointing (the generic snapshot
format and file IO live in :mod:`repro.sim.checkpoint`). A run started
through :func:`run_with_checkpoints` advances the clock in
``checkpoint_every``-second segments and writes one
:class:`~repro.sim.checkpoint.Checkpoint` at each boundary; a later
:func:`resume_run` rebuilds the simulation from the recorded config,
replays deterministically to the last checkpoint, *verifies* that the
replayed model state reproduces the checkpoint digest bit-for-bit
(:class:`~repro.errors.CheckpointMismatchError` otherwise) and then
continues to completion — still checkpointing on the original cadence,
so a resumed run can itself be interrupted and resumed again.

Why replay instead of restore: simulation processes are live generator
frames, which CPython cannot serialize. A run, however, is a pure
function of its config (the property the parallel executor is built on),
so replaying to the cut reconstructs the heap's continuations *exactly*
— and the digest check turns "exactly" from a claim into a verified
invariant. The resume-equivalence test suite pins the stronger end-to-end
property: trajectory, metrics snapshot and trace stream of an
interrupted-and-resumed run are bit-identical to an uninterrupted one.

Simulated crashes: ``halt_at`` stops a run (returning ``None``) at the
first checkpoint boundary at or past the given simulated time. Unlike
killing a process, the halt point is deterministic, which is what the
CI resume-parity job and the integration tests need.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import CheckpointError, CheckpointMismatchError
from ..sim.checkpoint import (
    Checkpoint,
    canonical_state,
    config_digest,
    latest_checkpoint,
    list_checkpoints,
    state_digest,
    write_checkpoint,
)
from ..obs.export import record_from_dict
from ..obs.jsonl import read_jsonl
from .config import SimulationConfig
from .metrics import SimulationResult
from .persistence import (
    config_from_dict,
    config_to_dict,
    load_json,
    save_run_artifacts,
)
from .simulation import DEFAULT_ENGINE_MODE, Simulation, engine_manifest

PathLike = Union[str, pathlib.Path]

#: Artifact stem used for checkpointed bundles (matches ``repro run``).
DEFAULT_STEM = "run"

_INFINITY = float("inf")


def _engine_version() -> str:
    """``repro.__version__`` (imported lazily: this module is pulled in
    by the package ``__init__`` before the version constant exists)."""
    from .. import __version__

    return __version__


def take_checkpoint(
    sim: Simulation, sequence: int, every: float
) -> Checkpoint:
    """Snapshot ``sim`` at its current clock as checkpoint ``sequence``."""
    # Canonicalized so the in-memory checkpoint equals its file round
    # trip exactly (config fields may hold tuples; JSON reads lists).
    config_dict = canonical_state(config_to_dict(sim.config))
    state = canonical_state(sim.snapshot_state())
    return Checkpoint(
        sequence=sequence,
        time=sim.env.now,
        dispatched=sim.env.dispatched,
        config=config_dict,
        config_hash=config_digest(config_dict),
        seed=sim.config.seed,
        every=float(every),
        state=state,
        digest=state_digest(state),
        engine_version=_engine_version(),
        engine_mode=sim.engine_mode,
    )


def verify_checkpoint(sim: Simulation, checkpoint: Checkpoint) -> None:
    """Prove that ``sim``'s replayed state matches ``checkpoint``.

    Raises :class:`~repro.errors.CheckpointMismatchError` naming the
    first diverging piece of state: the dispatched-event count, or the
    first state section (``state.rng``, ``state.servers``, ...) whose
    sub-digest differs. Passing silently is the proof obligation of a
    resume — the replayed simulation *is* the interrupted one.
    """
    if sim.env.dispatched != checkpoint.dispatched:
        raise CheckpointMismatchError(
            "dispatched", checkpoint.dispatched, sim.env.dispatched
        )
    state = canonical_state(sim.snapshot_state())
    digest = state_digest(state)
    if digest == checkpoint.digest:
        return
    # Name the first diverging section so the error is actionable.
    for section in sorted(set(state) | set(checkpoint.state)):
        expected = state_digest(checkpoint.state.get(section))
        actual = state_digest(state.get(section))
        if expected != actual:
            raise CheckpointMismatchError(
                f"state.{section}", expected, actual
            )
    raise CheckpointMismatchError("digest", checkpoint.digest, digest)


def _check_halt_at(halt_at: Optional[float]) -> None:
    """Reject a non-finite ``halt_at``: a NaN one would never halt."""
    if halt_at is not None and not -_INFINITY < halt_at < _INFINITY:
        raise CheckpointError(
            f"halt_at must be a finite simulated time, got {halt_at!r}"
        )


def _drive(
    sim: Simulation,
    directory: pathlib.Path,
    every: float,
    halt_at: Optional[float],
    start_sequence: int,
) -> bool:
    """Advance ``sim`` to completion, checkpointing every ``every`` seconds.

    Checkpoint ``k`` is taken at simulated time ``k * every`` (recomputed
    as a product each time, never accumulated, so a resumed run hits the
    same float boundaries as the original). Returns ``True`` on
    completion, ``False`` when ``halt_at`` triggered a simulated crash.
    """
    duration = sim.config.duration
    sequence = start_sequence
    while True:
        boundary = sequence * every
        if boundary >= duration:
            break
        sim.advance(boundary)
        write_checkpoint(take_checkpoint(sim, sequence, every), directory)
        if halt_at is not None and boundary >= halt_at:
            return False
        sequence += 1
    sim.advance(duration)
    return True


def _finalize(
    sim: Simulation,
    directory: pathlib.Path,
    stem: str,
    every: float,
    resumed: bool,
) -> SimulationResult:
    """Collect the completed run and write its artifact bundle."""
    result = sim.collect()
    extra = {
        "checkpoint_every": float(every),
        "checkpoints_written": len(list_checkpoints(directory)),
        "resumed": resumed,
    }
    engine_mode, engine_extra = engine_manifest(sim.engine_info)
    extra.update(engine_extra)
    extra["workload"] = sim.workload_info
    # When this cell runs inside a dispatch worker, stamp the worker's
    # identity into the manifest — provenance only, never the result.
    from .dispatch.context import dispatch_context

    save_run_artifacts(
        result,
        directory,
        stem=stem,
        extra=extra,
        engine_mode=engine_mode,
        dispatch=dispatch_context(),
    )
    return result


def run_with_checkpoints(
    config: SimulationConfig,
    *,
    every: float,
    directory: PathLike,
    halt_at: Optional[float] = None,
    stem: str = DEFAULT_STEM,
    engine_mode: str = DEFAULT_ENGINE_MODE,
) -> Optional[SimulationResult]:
    """Run ``config`` with periodic checkpoints into ``directory``.

    Writes one checkpoint every ``every`` simulated seconds. On
    completion the full run-artifact bundle (result JSON, manifest,
    trace JSONL, Prometheus metrics — see
    :func:`~repro.experiments.persistence.save_run_artifacts`) is
    written next to the checkpoints and the
    :class:`~repro.experiments.metrics.SimulationResult` is returned.

    ``halt_at`` simulates a crash: the run stops and returns ``None``
    at the first checkpoint boundary at or past that simulated time,
    leaving only the checkpoints behind for :func:`resume_run`.

    ``engine_mode="event"`` runs the reference engine instead of the
    fast-forward default. Checkpoint cuts and digests are identical
    either way (the fast-forward equivalence guarantee); each
    checkpoint records the mode as provenance.
    """
    if not 0.0 < every < _INFINITY:
        raise CheckpointError(
            f"checkpoint cadence must be finite and > 0 seconds, got {every!r}"
        )
    _check_halt_at(halt_at)
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sim = Simulation(config, engine_mode=engine_mode)
    completed = _drive(
        sim, directory, float(every), halt_at, start_sequence=1
    )
    if not completed:
        return None
    return _finalize(sim, directory, stem, float(every), resumed=False)


def resume_run(
    directory: PathLike,
    *,
    halt_at: Optional[float] = None,
    stem: str = DEFAULT_STEM,
) -> Optional[SimulationResult]:
    """Resume the interrupted run checkpointed under ``directory``.

    Loads the latest checkpoint, rebuilds the simulation from its
    recorded config, replays to the recorded cut, verifies the state
    digest bit-for-bit (:class:`~repro.errors.CheckpointMismatchError`
    on any divergence — a changed engine, edited config or
    nondeterminism), then continues to completion on the original
    checkpoint cadence. Returns the completed run's result — bit-equal
    to what the uninterrupted run would have returned — or ``None`` if
    ``halt_at`` interrupted the resumed run again.

    The resumed run always takes the default fast-forward engine,
    whichever mode the checkpoint records: both engines cut and digest
    bit-identically, so an event-written checkpoint verifies and
    continues unchanged.

    Refuses checkpoints written by a different package version: replay
    equivalence is only guaranteed within one engine build, and a silent
    cross-version resume could verify vacuously or fail confusingly.
    """
    _check_halt_at(halt_at)
    directory = pathlib.Path(directory)
    checkpoint = latest_checkpoint(directory)
    if checkpoint is None:
        raise CheckpointError(f"no checkpoints found under {directory}")
    version = _engine_version()
    if checkpoint.engine_version != version:
        raise CheckpointError(
            f"checkpoint was written by repro {checkpoint.engine_version}, "
            f"this is repro {version}; re-run instead of resuming"
        )
    recorded_hash = config_digest(checkpoint.config)
    if recorded_hash != checkpoint.config_hash:
        raise CheckpointMismatchError(
            "config_hash", checkpoint.config_hash, recorded_hash
        )
    config = config_from_dict(checkpoint.config)
    sim = Simulation(config)
    sim.advance(checkpoint.time)
    verify_checkpoint(sim, checkpoint)
    completed = _drive(
        sim,
        directory,
        checkpoint.every,
        halt_at,
        start_sequence=checkpoint.sequence + 1,
    )
    if not completed:
        return None
    return _finalize(
        sim, directory, stem, checkpoint.every, resumed=True
    )


# -- parallel-executor integration -------------------------------------------

#: One checkpointed grid cell:
#: ``(config_dict, directory, every, engine_mode)``. The config travels
#: as its serialized dict so the task tuple pickles compactly and
#: identically however the worker pool is shaped.
CellTask = Tuple[Dict[str, Any], str, float, str]


def make_cell_task(
    config: SimulationConfig,
    directory: PathLike,
    every: float,
    engine_mode: str = DEFAULT_ENGINE_MODE,
) -> CellTask:
    """Build the picklable task tuple for one checkpointed cell."""
    return (
        config_to_dict(config),
        str(directory),
        float(every),
        engine_mode,
    )


def run_checkpointed_cell(task: CellTask) -> SimulationResult:
    """Run, resume or reload one grid cell under checkpointing.

    Module-level so it pickles into executor worker processes. The
    cell's directory is its restart ledger:

    * a finished ``run.json`` is reloaded and returned (the cell is
      done — an interrupted *grid* must not redo completed cells);
    * checkpoints without a result mean the cell was interrupted —
      resume from the latest checkpoint (digest-verified);
    * an empty directory starts the cell fresh.

    A reloaded cell is cross-checked against the requested config: a
    stale or colliding checkpoint directory raises
    :class:`~repro.errors.CheckpointMismatchError` instead of silently
    returning the wrong cell's numbers.
    """
    config_dict, directory, every, engine_mode = task
    config = config_from_dict(config_dict)
    cell_dir = pathlib.Path(directory)
    result_path = cell_dir / f"{DEFAULT_STEM}.json"
    if result_path.exists():
        result = load_json(result_path)
        if not isinstance(result, SimulationResult):
            raise CheckpointError(
                f"{result_path} does not hold a simulation result"
            )
        if result.config is None or config_to_dict(result.config) != config_dict:
            raise CheckpointMismatchError(
                "config",
                config_digest(config_dict),
                config_digest(
                    config_to_dict(result.config)
                    if result.config is not None
                    else {}
                ),
            )
        if config.trace:
            trace_path = cell_dir / f"{DEFAULT_STEM}.trace.jsonl"
            if trace_path.exists():
                result.trace, _ = read_jsonl(trace_path, record_from_dict)
        return result
    checkpoint = latest_checkpoint(cell_dir)
    if checkpoint is not None:
        if config_digest(checkpoint.config) != config_digest(config_dict):
            raise CheckpointMismatchError(
                "config",
                config_digest(config_dict),
                config_digest(checkpoint.config),
            )
        resumed = resume_run(cell_dir)
        assert resumed is not None  # no halt_at in executor cells
        return resumed
    result = run_with_checkpoints(
        config, every=every, directory=cell_dir, engine_mode=engine_mode
    )
    assert result is not None
    return result
