"""Trace records as JSONL objects, and the Prometheus text exposition.

A trace file holds one JSON object per line, schema::

    {"time": <float>, "category": <str>, "payload": <JSON value or null>}

:func:`record_to_dict` / :func:`record_from_dict` are the trace format;
:mod:`repro.obs.jsonl` writes and reads the file. Export is loss-free
for JSON-representable payloads (the instrumentation in this package
only emits dicts of numbers, strings and booleans); tuples come back as
lists, which is the standard JSON round-trip caveat.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

from ..errors import ConfigurationError
from ..sim.tracing import TraceRecord

PathLike = Union[str, pathlib.Path]


def record_to_dict(record: TraceRecord) -> Dict[str, object]:
    """The JSONL object for one trace record."""
    return {
        "time": record.time,
        "category": record.category,
        "payload": record.payload,
    }


def record_from_dict(data: Dict[str, object]) -> TraceRecord:
    """Rebuild a :class:`TraceRecord` from its JSONL object."""
    try:
        return TraceRecord(
            time=float(data["time"]),
            category=str(data["category"]),
            payload=data.get("payload"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed trace record {data!r}") from exc


def _prom_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name for a dotted registry name."""
    return prefix + "_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prom_number(value: float) -> str:
    """Prometheus-style rendering of one sample value."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _prom_help_text(text: str) -> str:
    """Escape a ``# HELP`` string per the text exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def metrics_to_prom_text(
    metrics: Dict[str, Any],
    prefix: str = "repro",
    meta: Optional[Dict[str, Dict[str, Optional[str]]]] = None,
) -> str:
    """Prometheus text exposition of a metrics-registry snapshot.

    ``metrics`` is a :meth:`repro.obs.MetricsRegistry.snapshot` dict (as
    carried on ``SimulationResult.metrics``). Scalars become untyped
    samples; :class:`~repro.obs.metrics.TimeWeightedHistogram` snapshots
    become cumulative ``_seconds_bucket{le=...}`` series (bucket values
    are *seconds spent* below each edge, the time-weighted analogue of
    observation counts) plus ``_seconds_sum`` / ``_count``;
    :class:`~repro.obs.metrics.TimeSeries` snapshots export their latest
    value as a gauge plus an ``_observations`` counter (a text
    exposition carries current state, not history — the full timeline
    stays in the result JSON). Non-numeric values are skipped with a
    ``# skipped`` comment so the exposition always parses.

    ``meta`` is :meth:`repro.obs.MetricsRegistry.metadata` output (or
    any ``{name: {"kind", "help"}}`` dict): named scalars then carry
    ``# HELP`` and ``# TYPE`` comment lines, making the output valid
    for real Prometheus scrapers, not just greppable.
    """
    meta = meta or {}
    lines: List[str] = []

    def describe(sample_name: str, registry_name: str) -> None:
        info = meta.get(registry_name)
        if info is not None and info.get("help"):
            lines.append(
                f"# HELP {sample_name} {_prom_help_text(str(info['help']))}"
            )

    for name, value in sorted(metrics.items()):
        full = _prom_name(name, prefix)
        if isinstance(value, dict) and value.get("kind") == "timeseries":
            describe(full, name)
            lines.append(f"# TYPE {full} gauge")
            if value["samples"]:
                lines.append(f"{full} {_prom_number(value['samples'][-1][1])}")
            lines.append(f"# TYPE {full}_observations counter")
            lines.append(f"{full}_observations {value['observations']}")
        elif isinstance(value, dict) and "bucket_seconds" in value:
            describe(f"{full}_seconds", name)
            lines.append(f"# TYPE {full}_seconds histogram")
            cumulative = 0.0
            for edge, seconds in zip(value["bins"], value["bucket_seconds"]):
                cumulative += seconds
                lines.append(
                    f'{full}_seconds_bucket{{le="{edge:g}"}} '
                    f"{_prom_number(cumulative)}"
                )
            lines.append(
                f'{full}_seconds_bucket{{le="+Inf"}} '
                f"{_prom_number(value['total_seconds'])}"
            )
            weighted_sum = value["mean"] * value["total_seconds"]
            lines.append(f"{full}_seconds_sum {_prom_number(weighted_sum)}")
            lines.append(f"{full}_count {value['observations']}")
        elif isinstance(value, (int, float)):
            info = meta.get(name)
            if info is not None:
                describe(full, name)
                kind = "counter" if info.get("kind") == "counter" else "gauge"
                lines.append(f"# TYPE {full} {kind}")
            lines.append(f"{full} {_prom_number(value)}")
        else:
            lines.append(f"# skipped {full}: non-numeric value")
    return "\n".join(lines) + "\n"


#: Sample-line grammar of the text exposition format (no timestamps —
#: this package never emits them).
_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)$"
)

_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


@dataclass(frozen=True)
class PromExposition:
    """A parsed Prometheus text exposition (samples, types, helps).

    ``samples`` is keyed by the full sample key — metric name plus its
    literal label block when present (``repro_util_max`` or
    ``repro_util_windowed_seconds_bucket{le="0.9"}``).
    """

    samples: Dict[str, float]
    types: Dict[str, str]
    helps: Dict[str, str]

    def value(self, key: str) -> float:
        """The sample for ``key``; raises ``KeyError`` when absent."""
        return self.samples[key]


def parse_prom_text(text: str) -> PromExposition:
    """Parse (and thereby validate) a text-format exposition.

    Raises :class:`~repro.errors.ConfigurationError` on any line that
    is not a well-formed sample, a ``# HELP`` / ``# TYPE`` comment, a
    free comment, or blank — the validation the CI smoke job runs
    against a live ``/metrics`` scrape. A ``# TYPE`` naming an unknown
    type is rejected too.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _PROM_TYPES:
                    raise ConfigurationError(
                        f"line {line_number}: bad TYPE comment {line!r}"
                    )
                types[parts[2]] = parts[3]
            elif len(parts) >= 3 and parts[1] == "HELP":
                helps[parts[2]] = parts[3] if len(parts) == 4 else ""
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(
                f"line {line_number}: not a valid sample line {line!r}"
            )
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ConfigurationError(
                f"line {line_number}: bad sample value {line!r}"
            ) from exc
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = value
    return PromExposition(samples=samples, types=types, helps=helps)


def write_metrics_prom(
    metrics: Dict[str, Any],
    path: PathLike,
    prefix: str = "repro",
    meta: Optional[Dict[str, Dict[str, Optional[str]]]] = None,
) -> pathlib.Path:
    """Write :func:`metrics_to_prom_text` output to ``path``."""
    path = pathlib.Path(path)
    path.write_text(metrics_to_prom_text(metrics, prefix=prefix, meta=meta))
    return path


def category_counts(records: Iterable[TraceRecord]) -> Dict[str, int]:
    """Record counts per category, name-sorted.

    This is the reproducibility fingerprint of a traced run: for a fixed
    config and seed the counts are bit-identical however the run was
    executed (serially, or through any worker count of the parallel
    executor).
    """
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.category] = counts.get(record.category, 0) + 1
    return dict(sorted(counts.items()))
