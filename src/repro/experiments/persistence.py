"""Saving and loading experiment outputs as JSON.

Long sweeps are expensive; these helpers make every result and figure a
plain-JSON artifact so analysis can be re-run without re-simulating, and
so CI can diff regenerated figures against committed baselines.

Only data is serialized — configs round-trip into
:class:`~repro.experiments.config.SimulationConfig` kwargs, metrics and
utilization series are included when present. Trace records are *not*
embedded in the result JSON (they can dwarf it); :func:`save_run_artifacts`
writes them as a JSONL sidecar, together with a provenance manifest, next
to the result — the full observability bundle of one run.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import reprlib
from typing import Any, Dict, Optional, Union

from ..errors import ConfigurationError
from ..obs.export import record_to_dict, write_metrics_prom
from ..obs.jsonl import json_fields, read_json_object, write_jsonl
from ..obs.provenance import write_manifest
from .config import SimulationConfig
from .figures import FigureResult
from .metrics import SimulationResult

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """A JSON-safe dict of a simulation config (tuples become tuples again on load)."""
    return dataclasses.asdict(config)


def config_from_dict(data: Any) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` saved by :func:`config_to_dict`.

    A non-object, an unknown key or a mistyped value raises
    :class:`~repro.errors.ConfigurationError` naming the key.
    """
    fields = json_fields(SimulationConfig, data, "config", ConfigurationError)
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown config key {', '.join(sorted(map(repr, unknown)))}")
    return SimulationConfig(**fields)


def _record_fields(cls: type, data: Any, kind: str, owner: str) -> Dict[str, Any]:
    """The fields of ``cls`` in ``data``, a JSON object stamped ``kind``."""
    if not isinstance(data, dict) or data.get("kind") != kind:
        raise ConfigurationError(f"not a serialized {owner}: {reprlib.repr(data)}")
    return json_fields(cls, data, owner, ConfigurationError)


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A JSON-safe dict of a simulation result (trace omitted)."""
    data: Dict[str, Any] = {"format_version": _FORMAT_VERSION, "kind": "simulation_result"}
    for spec in dataclasses.fields(result):
        if spec.name != "trace":
            data[spec.name] = getattr(result, spec.name)
    config = result.config
    data["config"] = config_to_dict(config) if isinstance(config, SimulationConfig) else None
    return data


def result_from_dict(data: Any) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` saved by :func:`result_to_dict`.

    A non-object, a missing field or a mistyped value raises
    :class:`~repro.errors.ConfigurationError`; a ``trace`` key is ignored.
    """
    fields = _record_fields(SimulationResult, data, "simulation_result", "simulation result")
    fields.pop("trace", None)
    if fields.get("config") is not None:
        fields["config"] = config_from_dict(fields["config"])
    return SimulationResult(**fields)


def figure_to_dict(figure: FigureResult) -> Dict[str, Any]:
    """A JSON-safe dict of a regenerated figure."""
    data = dataclasses.asdict(figure)
    return {"format_version": _FORMAT_VERSION, "kind": "figure_result", **data}


def figure_from_dict(data: Any) -> FigureResult:
    """Rebuild a :class:`FigureResult` saved by :func:`figure_to_dict`.

    A non-object, a missing field or a mistyped value raises
    :class:`~repro.errors.ConfigurationError`.
    """
    return FigureResult(**_record_fields(FigureResult, data, "figure_result", "figure"))


def save_json(obj, path: PathLike) -> pathlib.Path:
    """Serialize a result/figure/config to ``path`` (by type dispatch),
    creating missing parent directories."""
    if isinstance(obj, SimulationResult):
        payload = result_to_dict(obj)
    elif isinstance(obj, FigureResult):
        payload = figure_to_dict(obj)
    elif isinstance(obj, SimulationConfig):
        payload = {
            "format_version": _FORMAT_VERSION,
            "kind": "simulation_config",
            "config": config_to_dict(obj),
        }
    else:
        raise ConfigurationError(f"cannot serialize {type(obj).__name__}")
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_run_artifacts(
    result: SimulationResult,
    directory: PathLike,
    *,
    stem: str = "run",
    extra: Optional[Dict[str, Any]] = None,
    workers: Optional[int] = None,
    engine_mode: Optional[str] = None,
    dispatch: Optional[Dict[str, Any]] = None,
) -> Dict[str, pathlib.Path]:
    """Write one run's full observability bundle into ``directory``.

    Always writes ``<stem>.json`` (the result) and — when the result
    carries its config — ``<stem>.manifest.json`` (provenance: config,
    seed, package version, git state, environment fingerprint;
    ``workers`` records the executor worker count there, ``engine_mode``
    the dispatch engine and ``dispatch`` the execution placement, both
    as top-level manifest keys). When the run was traced,
    ``<stem>.trace.jsonl`` holds every trace record, one JSON object per
    line; when the result carries a metrics snapshot,
    ``<stem>.metrics.prom`` holds its Prometheus text exposition.
    Returns the written paths keyed by artifact name.
    """
    directory = pathlib.Path(directory)
    paths = {"result": save_json(result, directory / f"{stem}.json")}
    if isinstance(result.config, SimulationConfig):
        paths["manifest"] = write_manifest(
            result.config,
            directory / f"{stem}.manifest.json",
            extra=extra,
            workers=workers,
            engine_mode=engine_mode,
            dispatch=dispatch,
        )
    if result.trace is not None:
        paths["trace"] = write_jsonl(
            directory / f"{stem}.trace.jsonl", map(record_to_dict, result.trace)
        )
    if result.metrics:
        paths["prom"] = write_metrics_prom(
            result.metrics, directory / f"{stem}.metrics.prom"
        )
    return paths


def load_json(path: PathLike):
    """Load whatever :func:`save_json` wrote at ``path``."""
    data = read_json_object(path)
    kind = data.get("kind")
    if kind == "simulation_result":
        return result_from_dict(data)
    if kind == "figure_result":
        return figure_from_dict(data)
    if kind == "simulation_config":
        return config_from_dict(data.get("config"))
    raise ConfigurationError(f"unknown serialized kind {kind!r}")
