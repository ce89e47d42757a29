"""Per-run provenance manifests.

A manifest answers, months later, "what exactly produced this output
file?": the full simulation configuration, the master seed, the package
version, the git state of the working tree (when available) and the
python/platform the run executed on. The experiment persistence layer
writes one next to every saved run; :func:`read_manifest` plus
``config_from_dict`` reconstruct the identical
:class:`~repro.experiments.config.SimulationConfig`.

Everything here is dependency-free and failure-tolerant: outside a git
checkout the git fields are simply ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Union

from ..errors import ConfigurationError
from .jsonl import read_json_object

PathLike = Union[str, pathlib.Path]

MANIFEST_KIND = "run_manifest"
MANIFEST_VERSION = 1


def git_describe(cwd: Optional[PathLike] = None) -> Optional[str]:
    """``git describe --always --dirty`` of ``cwd``, or ``None``."""
    try:
        output = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    described = output.stdout.strip()
    return described if output.returncode == 0 and described else None


def environment_fingerprint(
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """The execution environment a run happened in.

    Report comparisons (``repro report --compare``) diff this block to
    flag environment drift between two bundles — a regression measured
    on a different interpreter, machine or worker count is a different
    claim than one measured on identical environments.
    """
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": workers,
    }


def build_manifest(
    config,
    *,
    extra: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
    engine_mode: Optional[str] = None,
    dispatch: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The provenance manifest for one run of ``config``.

    ``config`` is a :class:`~repro.experiments.config.SimulationConfig`
    (any dataclass with ``seed``/``policy`` fields works). ``extra``
    entries are merged under the ``"extra"`` key for caller context
    (replication index, grid cell, CLI argv, ...); ``workers`` records
    the executor worker count in the environment fingerprint;
    ``engine_mode`` records the dispatch engine (``"event"`` /
    ``"fastforward"``) as a top-level key. The mode lives *outside* the
    ``environment`` block on purpose: both engines produce bit-identical
    results, so ``repro report --compare`` (which diffs the environment
    block) must stay mode-agnostic. ``dispatch`` records where the run
    physically executed (backend name and, for remote dispatch, the
    worker identity or roster) as a top-level ``"dispatch"`` key — also
    outside ``environment``, for the same reason: dispatch placement
    never changes results.
    """
    from .. import __version__

    if not dataclasses.is_dataclass(config):
        raise ConfigurationError(
            f"config must be a dataclass, got {type(config).__name__}"
        )
    manifest: Dict[str, Any] = {
        "format_version": MANIFEST_VERSION,
        "kind": MANIFEST_KIND,
        "package": {"name": "repro", "version": __version__},
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "environment": environment_fingerprint(workers),
        "git_describe": git_describe(),
        "created_at_unix": time.time(),
        "policy": getattr(config, "policy", None),
        "seed": getattr(config, "seed", None),
        "config": dataclasses.asdict(config),
    }
    if engine_mode is not None:
        manifest["engine_mode"] = engine_mode
    if dispatch:
        manifest["dispatch"] = dict(dispatch)
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(
    config,
    path: PathLike,
    *,
    extra: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
    engine_mode: Optional[str] = None,
    dispatch: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Build and write a manifest as pretty JSON; returns the path."""
    path = pathlib.Path(path)
    manifest = build_manifest(
        config,
        extra=extra,
        workers=workers,
        engine_mode=engine_mode,
        dispatch=dispatch,
    )
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_manifest(path: PathLike) -> Dict[str, Any]:
    """Load and sanity-check a manifest written by :func:`write_manifest`."""
    data = read_json_object(path)
    if data.get("kind") != MANIFEST_KIND:
        raise ConfigurationError(
            f"not a run manifest: kind={data.get('kind')!r}"
        )
    return data
