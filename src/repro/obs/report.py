"""Run reports and regression-gating bundle comparisons.

A ``save_run_artifacts`` bundle (result JSON + provenance manifest +
optional JSONL trace) is the durable record of one run; this module
turns it back into something a human — or a CI gate — can read:

* :func:`load_bundle` re-reads a bundle directory (salvaging a
  truncated trace rather than failing on it);
* :func:`render_report` produces a self-contained markdown or HTML
  report: provenance, headline metrics, the metrics-registry table,
  trace category counts, and sparkline timelines of the run's
  :class:`~repro.obs.metrics.TimeSeries` instruments (max utilization,
  assigned TTL, DNS-controlled fraction);
* :func:`compare_bundles` diffs two bundles on the metrics that define
  a regression here (max utilization, DNS control fraction, wall time)
  and flags environment drift between the two manifests, so a CI job
  can hold a change against a committed baseline bundle
  (``repro report --compare A B --fail-on-regression``).

Everything is dependency-free; heavyweight imports (the experiments
layer) happen lazily so ``repro.obs`` stays import-light.
"""

from __future__ import annotations

import html as _html
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from .export import category_counts, record_from_dict
from .jsonl import JsonlDamage, read_json_object, read_jsonl
from .provenance import read_manifest

PathLike = Union[str, pathlib.Path]

#: Threshold used by ``prob_max_below_098`` (the paper's indicator).
_OVERLOAD = 0.98


@dataclass
class RunBundle:
    """One loaded ``save_run_artifacts`` bundle."""

    directory: pathlib.Path
    stem: str
    #: The ``<stem>.json`` result dict (checked to decode).
    result: Dict[str, Any]
    #: The provenance manifest (``None`` when the bundle has none).
    manifest: Optional[Dict[str, Any]] = None
    #: Per-category record counts of the trace sidecar (``None`` when
    #: the bundle was saved without a trace).
    trace_counts: Optional[Dict[str, int]] = None
    #: The first unreadable line of the trace file, if there is one.
    trace_damage: Optional[JsonlDamage] = None

    @property
    def label(self) -> str:
        return str(self.directory)

    @property
    def metrics(self) -> Dict[str, Any]:
        """The metrics-registry snapshot carried by the result."""
        return self.result.get("metrics") or {}

    def scalars(self) -> Dict[str, Optional[float]]:
        """The scalar metrics a comparison gates on."""
        samples = self.result.get("max_utilization_samples") or []
        extra = (self.manifest or {}).get("extra") or {}
        wall_time = extra.get("wall_time")
        return {
            "mean_max_utilization": (
                sum(samples) / len(samples) if samples else None
            ),
            "prob_max_below_098": (
                sum(1 for s in samples if s < _OVERLOAD) / len(samples)
                if samples
                else None
            ),
            "dns_control_fraction": self.result.get("dns_control_fraction"),
            "wall_time": float(wall_time) if wall_time is not None else None,
        }


def _detect_stem(directory: pathlib.Path) -> str:
    """The bundle stem: ``run`` when present, else the unique result."""
    if (directory / "run.json").exists():
        return "run"
    candidates = [
        path.stem
        for path in sorted(directory.glob("*.json"))
        if not path.name.endswith(".manifest.json")
    ]
    if len(candidates) != 1:
        raise ConfigurationError(
            f"cannot detect a unique bundle stem in {directory} "
            f"(candidates: {candidates!r}); pass stem= explicitly"
        )
    return candidates[0]


def load_bundle(directory: PathLike, stem: Optional[str] = None) -> RunBundle:
    """Load a bundle written by ``save_run_artifacts`` (or ``repro trace``).

    Only ``<stem>.json`` is mandatory; a result that does not decode
    with :func:`~repro.experiments.persistence.result_from_dict` raises
    :class:`~repro.errors.ConfigurationError`. A truncated trace
    sidecar — the signature of a crashed run — is salvaged, not fatal:
    all complete records are counted and the damage is reported on the
    bundle.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"not a bundle directory: {directory}")
    stem = stem or _detect_stem(directory)
    result_path = directory / f"{stem}.json"
    if not result_path.exists():
        raise ConfigurationError(f"no result file {result_path}")
    from ..experiments.persistence import result_from_dict

    result = read_json_object(result_path)
    try:
        result_from_dict(result)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{result_path}: {exc}") from exc
    bundle = RunBundle(directory=directory, stem=stem, result=result)
    manifest_path = directory / f"{stem}.manifest.json"
    if manifest_path.exists():
        bundle.manifest = read_manifest(manifest_path)
    trace_path = directory / f"{stem}.trace.jsonl"
    if trace_path.exists():
        records, damage = read_jsonl(
            trace_path, record_from_dict, strict=False
        )
        bundle.trace_counts = category_counts(records)
        bundle.trace_damage = damage[0] if damage else None
    return bundle


# -- report content ---------------------------------------------------------


@dataclass
class ReportSection:
    """One titled block: a table (headers + rows) and/or free lines."""

    title: str
    headers: Optional[List[str]] = None
    rows: List[List[str]] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _metrics_rows(metrics: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for name, value in sorted(metrics.items()):
        if isinstance(value, dict) and value.get("kind") == "timeseries":
            if value["samples"]:
                last_time, last_value = value["samples"][-1]
                rendered = (
                    f"n={value['observations']} "
                    f"last={last_value:.4f}@{last_time:.0f}s"
                )
            else:
                rendered = "no observations"
        elif isinstance(value, dict):  # histogram snapshot
            if value.get("max") is None:
                rendered = "no observations"
            else:
                rendered = (
                    f"mean={value['mean']:.4f} max={value['max']:.4f} "
                    f"windows={value['observations']}"
                )
        else:
            rendered = _format_value(value)
        rows.append([name, rendered])
    return rows


#: TimeSeries metrics drawn as sparkline timelines, with display names.
TIMELINE_METRICS = (
    ("util.max", "max utilization"),
    ("dns.assigned_ttl", "assigned TTL (s)"),
    ("workload.control_fraction", "DNS-controlled fraction"),
    ("alarm.active", "alarmed servers"),
)


def _timeline_lines(metrics: Dict[str, Any]) -> List[str]:
    from ..analysis.timeseries import sparkline

    lines = []
    for name, label in TIMELINE_METRICS:
        snapshot = metrics.get(name)
        if not isinstance(snapshot, dict) or snapshot.get("kind") != "timeseries":
            continue
        values = [value for _, value in snapshot["samples"]]
        if not values:
            continue
        low, high = min(values), max(values)
        lines.append(
            f"{label:<24} {sparkline(values)}  "
            f"[{low:.3g} .. {high:.3g}] ({snapshot['observations']} obs)"
        )
    return lines


def build_report(bundle: RunBundle) -> List[ReportSection]:
    """The report's content, independent of output format."""
    sections: List[ReportSection] = []

    provenance = ReportSection("Provenance", headers=["field", "value"])
    provenance.rows.append(["bundle", bundle.label])
    provenance.rows.append(["policy", str(bundle.result.get("policy"))])
    manifest = bundle.manifest
    if manifest is not None:
        package = manifest.get("package", {})
        environment = manifest.get("environment") or {}
        provenance.rows += [
            ["seed", str(manifest.get("seed"))],
            [
                "package",
                f"{package.get('name')} {package.get('version')}",
            ],
            ["git", str(manifest.get("git_describe"))],
        ]
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count", "workers"):
            if key in environment:
                provenance.rows.append([key, str(environment[key])])
        extra = manifest.get("extra") or {}
        if "wall_time" in extra:
            provenance.rows.append(
                ["wall time", f"{float(extra['wall_time']):.3f} s"]
            )
    else:
        provenance.lines.append("(no provenance manifest in this bundle)")
    sections.append(provenance)

    headline = ReportSection("Headline metrics", headers=["metric", "value"])
    scalars = bundle.scalars()
    for name in ("mean_max_utilization", "prob_max_below_098",
                 "dns_control_fraction"):
        value = scalars.get(name)
        headline.rows.append(
            [name, _format_value(value) if value is not None else "n/a"]
        )
    for name in ("dns_resolutions", "mean_granted_ttl", "alarm_signals",
                 "total_hits", "total_sessions", "duration"):
        if name in bundle.result:
            headline.rows.append([name, _format_value(bundle.result[name])])
    sections.append(headline)

    timelines = _timeline_lines(bundle.metrics)
    if timelines:
        section = ReportSection("Timelines")
        section.lines = timelines
        sections.append(section)

    if bundle.metrics:
        section = ReportSection(
            "Metrics registry", headers=["metric", "value"]
        )
        section.rows = _metrics_rows(bundle.metrics)
        sections.append(section)

    if bundle.trace_counts is not None:
        section = ReportSection(
            "Trace", headers=["category", "records"]
        )
        section.rows = [
            [category, str(count)]
            for category, count in bundle.trace_counts.items()
        ]
        section.rows.append(
            ["(total)", str(sum(bundle.trace_counts.values()))]
        )
        if bundle.trace_damage is not None:
            section.lines.append(
                f"warning: trace truncated at {bundle.trace_damage} — "
                "counts cover the salvaged records only"
            )
        sections.append(section)

    return sections


# -- rendering --------------------------------------------------------------


def _render_markdown(title: str, sections: List[ReportSection]) -> str:
    out = [f"# {title}", ""]
    for section in sections:
        out.append(f"## {section.title}")
        out.append("")
        if section.headers is not None:
            out.append("| " + " | ".join(section.headers) + " |")
            out.append("|" + "---|" * len(section.headers))
            for row in section.rows:
                out.append("| " + " | ".join(row) + " |")
            out.append("")
        for line in section.lines:
            out.append(f"    {line}")
        if section.lines:
            out.append("")
    return "\n".join(out).rstrip() + "\n"


_HTML_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .5rem 0 1rem; }
th, td { border: 1px solid #bbb; padding: .25rem .6rem; text-align: left; }
th { background: #eee; }
pre { background: #f6f6f6; padding: .6rem; overflow-x: auto; }
.warn { color: #a40000; }
""".strip()


def _render_html(title: str, sections: List[ReportSection]) -> str:
    esc = _html.escape
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{esc(title)}</title>",
        f"<style>{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{esc(title)}</h1>",
    ]
    for section in sections:
        out.append(f"<h2>{esc(section.title)}</h2>")
        if section.headers is not None:
            out.append("<table><tr>")
            out += [f"<th>{esc(h)}</th>" for h in section.headers]
            out.append("</tr>")
            for row in section.rows:
                out.append(
                    "<tr>" + "".join(f"<td>{esc(c)}</td>" for c in row)
                    + "</tr>"
                )
            out.append("</table>")
        if section.lines:
            cls = " class=\"warn\"" if any(
                line.startswith("warning") for line in section.lines
            ) else ""
            out.append(
                f"<pre{cls}>" + "\n".join(esc(line) for line in section.lines)
                + "</pre>"
            )
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def render_report(bundle: RunBundle, fmt: str = "markdown") -> str:
    """A self-contained report of one bundle (``markdown`` or ``html``)."""
    if fmt not in ("markdown", "html"):
        raise ConfigurationError(f"unknown report format {fmt!r}")
    title = (
        f"Run report: {bundle.result.get('policy')} "
        f"(seed {(bundle.manifest or {}).get('seed')})"
    )
    sections = build_report(bundle)
    if fmt == "html":
        return _render_html(title, sections)
    return _render_markdown(title, sections)


# -- comparison + regression gating -----------------------------------------

#: Metrics a comparison diffs: (name, better direction, gated by default).
#: Wall time is always *reported* but only *gated* on request — it is
#: hardware-dependent, so gating it by default would make the CI check
#: flaky in exactly the place it must be trustworthy.
COMPARED_METRICS: Tuple[Tuple[str, str, bool], ...] = (
    ("mean_max_utilization", "lower", True),
    ("prob_max_below_098", "higher", True),
    ("dns_control_fraction", "higher", True),
    ("wall_time", "lower", False),
)


@dataclass(frozen=True)
class MetricDelta:
    """One compared metric between baseline (a) and candidate (b)."""

    name: str
    direction: str  # "lower" or "higher" is better
    baseline: Optional[float]
    candidate: Optional[float]
    #: Percent change of the candidate relative to the baseline
    #: (``None`` when either side is missing).
    delta_pct: Optional[float]
    #: Worsened beyond the threshold, in the metric's bad direction.
    regressed: bool
    #: Whether this metric participates in the exit-status gate.
    gated: bool


@dataclass
class BundleComparison:
    """The diff of two bundles, plus environment drift."""

    baseline: RunBundle
    candidate: RunBundle
    threshold_pct: float
    deltas: List[MetricDelta]
    environment_drift: List[str]

    def regressions(self) -> List[MetricDelta]:
        """Gated metrics that worsened beyond the threshold."""
        return [d for d in self.deltas if d.regressed and d.gated]

    @property
    def passed(self) -> bool:
        return not self.regressions()

    def sections(self) -> List[ReportSection]:
        table = ReportSection(
            "Metric deltas",
            headers=["metric", "baseline", "candidate", "delta %",
                     "better", "verdict"],
        )
        for delta in self.deltas:
            if delta.delta_pct is None:
                rendered_delta = "n/a"
            elif math.isinf(delta.delta_pct):
                rendered_delta = "inf"
            else:
                rendered_delta = f"{delta.delta_pct:+.2f}%"
            verdict = "REGRESSED" if delta.regressed else "ok"
            if not delta.gated:
                verdict += " (not gated)"
            table.rows.append([
                delta.name,
                _format_value(delta.baseline) if delta.baseline is not None
                else "n/a",
                _format_value(delta.candidate) if delta.candidate is not None
                else "n/a",
                rendered_delta,
                delta.direction,
                verdict,
            ])
        drift = ReportSection("Environment drift")
        if self.environment_drift:
            drift.lines = [
                "warning: the bundles ran in different environments — "
                "deltas may reflect the environment, not the code:"
            ] + [f"  {line}" for line in self.environment_drift]
        else:
            drift.lines = ["none: both bundles ran in the same environment"]
        summary = ReportSection("Verdict")
        regressions = self.regressions()
        if regressions:
            summary.lines = [
                f"warning: {len(regressions)} regression(s) beyond "
                f"{self.threshold_pct:g}%: "
                + ", ".join(d.name for d in regressions)
            ]
        else:
            summary.lines = [
                f"no gated metric regressed beyond {self.threshold_pct:g}%"
            ]
        return [table, drift, summary]

    def render(self, fmt: str = "markdown") -> str:
        title = (
            f"Bundle comparison: {self.baseline.label} (baseline) vs "
            f"{self.candidate.label} (candidate)"
        )
        if fmt == "html":
            return _render_html(title, self.sections())
        if fmt == "markdown":
            return _render_markdown(title, self.sections())
        raise ConfigurationError(f"unknown report format {fmt!r}")


def _delta_pct(baseline: float, candidate: float) -> float:
    if baseline == 0:
        return 0.0 if candidate == 0 else math.inf * (1 if candidate > 0 else -1)
    return (candidate - baseline) / abs(baseline) * 100.0


def compare_bundles(
    baseline: RunBundle,
    candidate: RunBundle,
    threshold_pct: float = 5.0,
    gate_wall_time: bool = False,
) -> BundleComparison:
    """Diff ``candidate`` against ``baseline`` with a regression gate.

    A metric regresses when it moves beyond ``threshold_pct`` percent in
    its bad direction (up for ``lower``-is-better metrics, down for
    ``higher``-is-better ones). Wall time joins the gate only with
    ``gate_wall_time=True``; it is reported regardless.
    """
    if threshold_pct < 0:
        raise ConfigurationError(
            f"threshold must be >= 0, got {threshold_pct!r}"
        )
    a_scalars = baseline.scalars()
    b_scalars = candidate.scalars()
    deltas: List[MetricDelta] = []
    for name, direction, gated_default in COMPARED_METRICS:
        gated = gated_default or (name == "wall_time" and gate_wall_time)
        a_value = a_scalars.get(name)
        b_value = b_scalars.get(name)
        if a_value is None or b_value is None:
            deltas.append(MetricDelta(
                name, direction, a_value, b_value,
                delta_pct=None, regressed=False, gated=gated,
            ))
            continue
        pct = _delta_pct(a_value, b_value)
        worsened = pct > threshold_pct if direction == "lower" else (
            pct < -threshold_pct
        )
        deltas.append(MetricDelta(
            name, direction, a_value, b_value,
            delta_pct=pct, regressed=worsened, gated=gated,
        ))

    drift: List[str] = []
    a_env = (baseline.manifest or {}).get("environment") or {}
    b_env = (candidate.manifest or {}).get("environment") or {}
    for key in sorted(set(a_env) | set(b_env)):
        a_item, b_item = a_env.get(key), b_env.get(key)
        if a_item != b_item:
            drift.append(f"{key}: {a_item!r} -> {b_item!r}")

    return BundleComparison(
        baseline=baseline,
        candidate=candidate,
        threshold_pct=float(threshold_pct),
        deltas=deltas,
        environment_drift=drift,
    )
