"""Deterministic run checkpoints: snapshot format, digests and file IO.

A checkpoint is a *replay marker with a proof obligation*. Simulation
processes are live Python generator frames, which CPython cannot
serialize — so a snapshot does not try to freeze the event heap's
continuations. Instead it records everything needed to reconstruct the
cut point *exactly* by deterministic replay:

* the full simulation configuration and master seed (the run is a pure
  function of these),
* the cut position — simulation time and the number of dispatched
  events,
* a canonical snapshot of every piece of serializable model state (RNG
  substream positions, cache contents and clocks, streaming statistics,
  alarm/monitor state, workload counters, the metrics registry), and
* a SHA-256 digest over that snapshot.

Resuming rebuilds the simulation from the recorded config, replays to
the recorded cut and then *verifies* that the replayed state reproduces
the digest bit-for-bit before continuing
(:class:`~repro.errors.CheckpointMismatchError` otherwise). The result
is that a resumed run either is provably the interrupted run — same
trajectory, same metrics, same trace stream — or fails loudly; see
``docs/CHECKPOINTING.md`` for the format and the determinism argument.

This module is engine-level and generic: it digests plain state
structures and moves checkpoint files around. The model-aware half —
walking a wired :class:`~repro.experiments.simulation.Simulation` and
driving segmented runs — lives in
:mod:`repro.experiments.checkpointing`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointError
from ..obs.jsonl import json_fields

PathLike = Union[str, pathlib.Path]

#: On-disk format version; bumped whenever the snapshot layout changes
#: so that old checkpoints fail loudly instead of verifying vacuously.
CHECKPOINT_FORMAT_VERSION = 1

CHECKPOINT_KIND = "simulation_checkpoint"

#: Checkpoint files are ``checkpoint-000042.json`` — zero-padded so
#: lexicographic order is sequence order on any filesystem.
_CHECKPOINT_NAME = "checkpoint-{sequence:06d}.json"
_CHECKPOINT_PATTERN = re.compile(r"^checkpoint-(\d{6})\.json$")


def canonical_state(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-safe structure.

    Canonical means: tuples become lists, mapping entries are sorted by
    their serialized key (so dict construction order cannot leak into
    the digest), non-string keys are stringified via ``repr``, and only
    JSON-representable leaves survive. Floats pass through unchanged —
    ``json.dumps`` serializes them via ``repr``, which is exact for
    finite doubles, so digest equality is bit-equality of every float
    in the state. Non-finite floats are rejected: NaN never compares
    equal, so a state containing one could not honestly claim
    reproducibility.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise CheckpointError(
                f"non-finite float {obj!r} cannot appear in checkpoint state"
            )
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical_state(item) for item in obj]
    if isinstance(obj, dict):
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                key = repr(key)
            items.append((key, canonical_state(value)))
        items.sort(key=lambda pair: pair[0])
        return dict(items)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical_state(dataclasses.asdict(obj))
    raise CheckpointError(
        f"cannot canonicalize {type(obj).__name__!r} for a checkpoint"
    )


def state_digest(state: Any) -> str:
    """SHA-256 hex digest of the canonical serialization of ``state``."""
    payload = json.dumps(
        canonical_state(state), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_digest(config_dict: Dict[str, Any]) -> str:
    """Digest of a serialized configuration (for manifest cross-checks)."""
    return state_digest(config_dict)


@dataclass
class Checkpoint:
    """One on-disk snapshot of an interrupted (or interruptible) run."""

    #: Monotonic sequence number within the run (0, 1, 2, ...).
    sequence: int
    #: Simulation time of the cut (a ``run(until=...)`` boundary).
    time: float
    #: Events dispatched when the cut was taken (the replay position).
    dispatched: int
    #: Serialized :class:`~repro.experiments.config.SimulationConfig`.
    config: Dict[str, Any]
    #: Digest of :attr:`config` — quick staleness check for resumes.
    config_hash: str
    #: Master seed (duplicated out of the config for greppability).
    seed: int
    #: Checkpoint cadence the run was started with (simulated seconds).
    every: float
    #: Canonical model-state snapshot at the cut (see module docstring).
    state: Dict[str, Any]
    #: Digest of :attr:`state` — what a resume must reproduce.
    digest: str
    #: ``repro.__version__`` that wrote the checkpoint.
    engine_version: str
    #: Snapshot layout version.
    format_version: int = CHECKPOINT_FORMAT_VERSION
    #: Dispatch engine mode the run was started with (``"event"`` or
    #: ``"fastforward"``). Both modes produce bit-identical state
    #: digests, so this field is provenance, not digested state: resumes
    #: default to the recorded mode, and an *explicitly requested*
    #: different mode is refused by name instead of surfacing as a
    #: digest mystery. Defaulted for checkpoints written before the
    #: fast-forward engine existed.
    engine_mode: str = "event"

    def to_dict(self) -> Dict[str, Any]:
        """The checkpoint as a JSON-ready dict, stamped with ``kind``."""
        data = dataclasses.asdict(self)
        data["kind"] = CHECKPOINT_KIND
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "Checkpoint":
        """Rebuild from :meth:`to_dict` output, refusing foreign layouts and bad fields."""
        if not isinstance(data, dict):
            raise CheckpointError(f"not a checkpoint: a JSON {type(data).__name__}")
        if data.get("kind") != CHECKPOINT_KIND:
            raise CheckpointError(
                f"not a checkpoint: kind={data.get('kind')!r}"
            )
        if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version "
                f"{data.get('format_version')!r} "
                f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
            )
        return cls(**json_fields(cls, data, "checkpoint", CheckpointError))


def checkpoint_path(directory: PathLike, sequence: int) -> pathlib.Path:
    """The canonical file path of checkpoint ``sequence`` under ``directory``."""
    return pathlib.Path(directory) / _CHECKPOINT_NAME.format(sequence=sequence)


def write_checkpoint(checkpoint: Checkpoint, directory: PathLike) -> pathlib.Path:
    """Atomically write ``checkpoint`` into ``directory``.

    Written to a temp name then renamed, so a crash mid-write can never
    leave a truncated file that a later resume would trip over.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, checkpoint.sequence)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(
        json.dumps(checkpoint.to_dict(), indent=1, sort_keys=True) + "\n"
    )
    tmp.replace(path)
    return path


def read_checkpoint(path: PathLike) -> Checkpoint:
    """Load one checkpoint file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    try:
        return Checkpoint.from_dict(data)
    except CheckpointError as error:
        raise CheckpointError(f"{path}: {error}") from error


def list_checkpoints(directory: PathLike) -> List[pathlib.Path]:
    """All checkpoint files under ``directory``, in sequence order."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        entry
        for entry in directory.iterdir()
        if _CHECKPOINT_PATTERN.match(entry.name)
    )


def latest_checkpoint(directory: PathLike) -> Optional[Checkpoint]:
    """The highest-sequence checkpoint under ``directory``, or ``None``."""
    paths = list_checkpoints(directory)
    if not paths:
        return None
    return read_checkpoint(paths[-1])
