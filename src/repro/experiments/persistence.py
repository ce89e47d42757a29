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
from typing import Any, Dict, Optional, Union

from ..errors import ConfigurationError
from ..obs.export import record_to_dict, write_metrics_prom
from ..obs.jsonl import read_json_object, write_jsonl
from ..obs.provenance import write_manifest
from ..sim.checkpoint import json_fields
from .config import SimulationConfig
from .figures import FigureResult, Series
from .metrics import SimulationResult

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def config_to_dict(config: SimulationConfig) -> Dict[str, Any]:
    """A JSON-safe dict of a simulation config."""
    data = dataclasses.asdict(config)
    # Tuples are not JSON-distinguishable from lists; normalize on load.
    return data


def config_from_dict(data: Any) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` saved by :func:`config_to_dict`.

    A non-object, an unknown key or a mistyped value raises
    :class:`~repro.errors.ConfigurationError` naming the key.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"a config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {spec.name for spec in dataclasses.fields(SimulationConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config key {', '.join(sorted(map(repr, unknown)))}")
    return SimulationConfig(**json_fields(SimulationConfig, data, "config", ConfigurationError))


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A JSON-safe dict of a simulation result (trace omitted)."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "simulation_result",
        "policy": result.policy,
        "max_utilization_samples": list(result.max_utilization_samples),
        "mean_utilization_per_server": list(
            result.mean_utilization_per_server
        ),
        "dns_resolutions": result.dns_resolutions,
        "address_request_rate": result.address_request_rate,
        "dns_resolution_fraction": result.dns_resolution_fraction,
        "dns_control_fraction": result.dns_control_fraction,
        "mean_granted_ttl": result.mean_granted_ttl,
        "alarm_signals": result.alarm_signals,
        "ns_ttl_overrides": result.ns_ttl_overrides,
        "mean_page_response_time": result.mean_page_response_time,
        "max_page_response_time": result.max_page_response_time,
        "mean_network_rtt": result.mean_network_rtt,
        "total_hits": result.total_hits,
        "total_sessions": result.total_sessions,
        "duration": result.duration,
        "config": (
            config_to_dict(result.config)
            if isinstance(result.config, SimulationConfig)
            else None
        ),
        "metrics": result.metrics,
        "utilization_series": result.utilization_series,
    }


def result_from_dict(data: Any) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` saved by :func:`result_to_dict`.

    A non-object, a missing field or a value of the wrong shape raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"a result must be a JSON object, got {type(data).__name__}")
    if data.get("kind") != "simulation_result":
        raise ConfigurationError(
            f"not a serialized simulation result: kind={data.get('kind')!r}"
        )
    try:
        config = data.get("config")
        series = data.get("utilization_series")
        return SimulationResult(
            policy=data["policy"],
            max_utilization_samples=list(data["max_utilization_samples"]),
            mean_utilization_per_server=list(
                data["mean_utilization_per_server"]
            ),
            dns_resolutions=data["dns_resolutions"],
            address_request_rate=data["address_request_rate"],
            dns_resolution_fraction=data["dns_resolution_fraction"],
            dns_control_fraction=data["dns_control_fraction"],
            mean_granted_ttl=data["mean_granted_ttl"],
            alarm_signals=data["alarm_signals"],
            ns_ttl_overrides=data["ns_ttl_overrides"],
            mean_page_response_time=data.get("mean_page_response_time", 0.0),
            max_page_response_time=data.get("max_page_response_time", 0.0),
            mean_network_rtt=data.get("mean_network_rtt", 0.0),
            total_hits=data["total_hits"],
            total_sessions=data["total_sessions"],
            duration=data["duration"],
            config=config_from_dict(config) if config else None,
            metrics=data.get("metrics"),
            utilization_series=(
                [(now, list(vector)) for now, vector in series]
                if series
                else None
            ),
        )
    except KeyError as exc:
        raise ConfigurationError(f"simulation result field {exc} is missing") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed simulation result: {exc}") from exc


def figure_to_dict(figure: FigureResult) -> Dict[str, Any]:
    """A JSON-safe dict of a regenerated figure."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": "figure_result",
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "notes": figure.notes,
        "series": [
            {"label": s.label, "x": list(s.x), "y": list(s.y)}
            for s in figure.series
        ],
    }


def figure_from_dict(data: Dict[str, Any]) -> FigureResult:
    """Rebuild a :class:`FigureResult` saved by :func:`figure_to_dict`."""
    if data.get("kind") != "figure_result":
        raise ConfigurationError(
            f"not a serialized figure: kind={data.get('kind')!r}"
        )
    return FigureResult(
        figure_id=data["figure_id"],
        title=data["title"],
        x_label=data["x_label"],
        y_label=data["y_label"],
        notes=data.get("notes", ""),
        series=[
            Series(label=s["label"], x=list(s["x"]), y=list(s["y"]))
            for s in data["series"]
        ],
    )


def save_json(obj, path: PathLike) -> pathlib.Path:
    """Serialize a result/figure/config to ``path`` (by type dispatch)."""
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
    directory.mkdir(parents=True, exist_ok=True)
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
        return config_from_dict(data["config"])
    raise ConfigurationError(f"unknown serialized kind {kind!r}")
