"""Unified observability layer: metrics, trace export, provenance, telemetry.

Eight cooperating pieces sit on top of the
:mod:`repro.sim.tracing` tracer skeleton:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, time-weighted histograms and bounded :class:`TimeSeries` that
  every simulation subsystem registers into (pull-based, so the hot
  path pays nothing);
* :mod:`repro.obs.jsonl` — the one JSONL codec: a whole-file writer,
  a live flushed-per-line writer, and one reader that decodes each line
  on its own and either raises on the first damaged line or skips and
  counts every one (traces, progress/span logs, crash rings and
  arrival-rate replay files all go through it);
* :mod:`repro.obs.export` — the JSONL object of a trace record, the
  per-category count fingerprint of a traced run, and Prometheus text
  exposition of metrics snapshots;
* :mod:`repro.obs.provenance` — per-run manifests (config, seed,
  package version, git state, environment fingerprint) written next to
  experiment outputs;
* :mod:`repro.obs.progress` — a batch's live cell-lifecycle span
  events, from the parallel executor or the dispatch coordinator, into
  terminal renderers and JSONL progress logs;
* :mod:`repro.obs.report` — self-contained run reports from saved
  bundles, and regression-gating comparisons between two bundles;
* :mod:`repro.obs.spans` — causally-correlated cell-lifecycle span
  events for the multi-host dispatch fabric, a reconstructor that
  rebuilds per-cell timelines from merged span logs, and the crash
  ring buffer flushed by dying workers;
* :mod:`repro.obs.http` — a stdlib HTTP endpoint serving any
  :class:`MetricsRegistry` as Prometheus text (``/metrics``) plus a
  JSON liveness probe (``/healthz``).

See ``docs/OBSERVABILITY.md`` for the category catalogue, the JSONL
schemas, the live-telemetry workflow and the measured overhead numbers.
"""

from .export import (
    PromExposition,
    category_counts,
    metrics_to_prom_text,
    parse_prom_text,
    record_from_dict,
    record_to_dict,
    write_metrics_prom,
)
from .http import ObservabilityServer, scrape_endpoint
from .jsonl import (
    JsonlDamage,
    JsonlWriter,
    read_json_object,
    read_jsonl,
    write_jsonl,
)
from .metrics import (
    TIMESERIES_BUDGET,
    UTILIZATION_BINS,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeSeries,
    TimeWeightedHistogram,
)
from .progress import (
    JsonlProgressSink,
    ProgressSink,
    TeeProgressSink,
    TerminalProgressRenderer,
)
from .provenance import (
    MANIFEST_KIND,
    MANIFEST_VERSION,
    build_manifest,
    environment_fingerprint,
    git_describe,
    read_manifest,
    write_manifest,
)
from .report import (
    BundleComparison,
    MetricDelta,
    RunBundle,
    bundle_from_result,
    compare_bundles,
    load_bundle,
    render_report,
)
from .spans import (
    FabricTimeline,
    Reconciliation,
    SpanEvent,
    SpanRecorder,
    crash_file_name,
    load_span_logs,
    render_fabric_timeline,
)

__all__ = [
    "BundleComparison",
    "Counter",
    "FabricTimeline",
    "Gauge",
    "JsonlDamage",
    "JsonlProgressSink",
    "JsonlWriter",
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "MetricDelta",
    "MetricsRegistry",
    "ObservabilityServer",
    "ProgressSink",
    "PromExposition",
    "Reconciliation",
    "RunBundle",
    "SpanEvent",
    "SpanRecorder",
    "TIMESERIES_BUDGET",
    "TeeProgressSink",
    "TerminalProgressRenderer",
    "TimeSeries",
    "TimeWeightedHistogram",
    "UTILIZATION_BINS",
    "build_manifest",
    "bundle_from_result",
    "category_counts",
    "compare_bundles",
    "crash_file_name",
    "environment_fingerprint",
    "git_describe",
    "load_bundle",
    "load_span_logs",
    "metrics_to_prom_text",
    "parse_prom_text",
    "read_json_object",
    "read_jsonl",
    "read_manifest",
    "record_from_dict",
    "record_to_dict",
    "render_fabric_timeline",
    "render_report",
    "scrape_endpoint",
    "write_jsonl",
    "write_manifest",
    "write_metrics_prom",
]
