"""Unit tests for JSONL trace export and provenance manifests."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.persistence import config_from_dict
from repro.obs import (
    MANIFEST_KIND,
    MetricsRegistry,
    build_manifest,
    category_counts,
    environment_fingerprint,
    metrics_to_prom_text,
    parse_prom_text,
    read_jsonl,
    read_manifest,
    record_from_dict,
    record_to_dict,
    write_jsonl,
    write_manifest,
    write_metrics_prom,
)
from repro.sim.tracing import TraceRecord

RECORDS = [
    TraceRecord(1.0, "dns", {"domain": 3, "server": 1, "ttl": 240.0}),
    TraceRecord(2.5, "alarm", {"server": 1, "alarmed": True}),
    TraceRecord(2.5, "dns", None),
]


def _write_trace(path):
    return write_jsonl(path, map(record_to_dict, RECORDS))


def _read_trace(path, strict=True):
    return read_jsonl(path, record_from_dict, strict=strict)


class TestJsonlRoundTrip:
    def test_record_dict_round_trip(self):
        for record in RECORDS:
            assert record_from_dict(record_to_dict(record)) == record

    def test_file_round_trip(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        assert _read_trace(path) == (RECORDS, [])

    def test_one_json_object_per_line(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(RECORDS)
        for line in lines:
            data = json.loads(line)
            assert set(data) == {"time", "category", "payload"}

    def test_invalid_json_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 1.0, "category": "dns"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            _read_trace(path)

    def test_malformed_record_rejected(self):
        with pytest.raises(ConfigurationError):
            record_from_dict({"category": "dns"})  # no time

    def test_category_counts(self):
        assert category_counts(RECORDS) == {"alarm": 1, "dns": 2}


class TestSalvage:
    def _truncated_trace(self, tmp_path):
        """A trace whose final record was cut mid-JSON (crashed run)."""
        path = _write_trace(tmp_path / "t.jsonl")
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        intact = "".join(lines[:-1])
        path.write_text(intact + lines[-1][: len(lines[-1]) // 2])
        return path, intact

    def test_non_strict_returns_complete_records(self, tmp_path):
        path, _ = self._truncated_trace(tmp_path)
        records, _ = _read_trace(path, strict=False)
        assert records == RECORDS[:-1]

    def test_strict_default_still_raises(self, tmp_path):
        path, _ = self._truncated_trace(tmp_path)
        with pytest.raises(ConfigurationError, match="t.jsonl:3"):
            _read_trace(path)

    def test_damage_reports_byte_offset_of_first_bad_line(self, tmp_path):
        path, intact = self._truncated_trace(tmp_path)
        records, damage = _read_trace(path, strict=False)
        assert records == RECORDS[:-1]
        assert len(damage) == 1
        assert damage[0].line_number == 3
        # The offset is where the intact prefix ends — truncating the
        # file there yields a fully valid JSONL file again.
        assert damage[0].byte_offset == len(intact.encode("utf-8"))
        assert "line 3" in str(damage[0])

    def test_malformed_record_damage(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"time": 1.0, "category": "dns", "payload": null}\n'
            '{"category": "dns"}\n'
        )
        records, damage = _read_trace(path, strict=False)
        assert len(records) == 1
        assert [d.line_number for d in damage] == [2]

    def test_intact_file_has_no_damage(self, tmp_path):
        path = _write_trace(tmp_path / "t.jsonl")
        records, damage = _read_trace(path, strict=False)
        assert records == RECORDS
        assert damage == []

    def test_damaged_middle_line_keeps_the_records_after_it(self, tmp_path):
        # Salvage skips a damaged line wherever it is; the first damage
        # still names the point up to which the file is intact.
        lines = _write_trace(tmp_path / "t.jsonl").read_bytes().splitlines(True)
        path = tmp_path / "t.jsonl"
        path.write_bytes(lines[0] + b'{"time": \xff\n' + b"".join(lines[1:]))
        records, damage = _read_trace(path, strict=False)
        assert records == RECORDS
        assert [(d.line_number, d.byte_offset) for d in damage] == [
            (2, len(lines[0]))
        ]
        assert damage[0].reason == "not valid UTF-8"


class TestPromExport:
    def _metrics(self):
        registry = MetricsRegistry()
        counter = registry.counter("dns.resolutions")
        counter.inc(7)
        histogram = registry.histogram("util.max_utilization")
        histogram.observe(0.0, 0.4)
        histogram.observe(8.0, 0.95)
        series = registry.timeseries("dns.assigned_ttl")
        series.record(10.0, 240.0)
        series.record(20.0, 120.0)
        registry.register("note", lambda: "text")
        return registry.snapshot()

    def test_scalars_and_counter(self):
        text = metrics_to_prom_text(self._metrics())
        assert "repro_dns_resolutions 7" in text

    def test_timeseries_exports_last_value_and_count(self):
        text = metrics_to_prom_text(self._metrics())
        assert "# TYPE repro_dns_assigned_ttl gauge" in text
        assert "repro_dns_assigned_ttl 120.0" in text
        assert "repro_dns_assigned_ttl_observations 2" in text

    def test_histogram_buckets_are_cumulative(self, tmp_path):
        text = metrics_to_prom_text(self._metrics())
        assert 'repro_util_max_utilization_seconds_bucket{le="0.5"} 0' in text
        assert (
            'repro_util_max_utilization_seconds_bucket{le="+Inf"} 8.0'
            in text
        )
        assert "repro_util_max_utilization_count 2" in text

    def test_non_numeric_values_skipped_not_fatal(self):
        text = metrics_to_prom_text(self._metrics())
        assert "# skipped repro_note" in text

    def test_write_and_prefix(self, tmp_path):
        path = write_metrics_prom(
            {"a.b": 1}, tmp_path / "m.prom", prefix="sim"
        )
        assert path.read_text() == "sim_a_b 1\n"


class TestPromMetadata:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "dns.resolutions", help="DNS requests resolved"
        ).inc(3)
        registry.gauge("web.active", help="Active sessions").set(2)
        registry.histogram(
            "util.max_utilization", help="Max server utilization"
        ).observe(0.0, 0.4)
        registry.timeseries(
            "dns.assigned_ttl", help="TTL assigned per resolution"
        ).record(1.0, 240.0)
        registry.register(
            "worker.cells", lambda: 5, help="Cells completed",
            kind="counter",
        )
        registry.register("plain", lambda: 1.0)
        return registry

    def test_metadata_collects_kind_and_help(self):
        meta = self._registry().metadata()
        assert meta["dns.resolutions"] == {
            "kind": "counter", "help": "DNS requests resolved",
        }
        assert meta["web.active"]["kind"] == "gauge"
        assert meta["util.max_utilization"]["kind"] == "histogram"
        assert meta["dns.assigned_ttl"]["kind"] == "timeseries"
        assert meta["worker.cells"] == {
            "kind": "counter", "help": "Cells completed",
        }
        # An undescribed callback defaults to a help-less gauge.
        assert meta["plain"] == {"kind": "gauge", "help": None}

    def test_exposition_carries_help_and_type_lines(self):
        registry = self._registry()
        text = metrics_to_prom_text(
            registry.snapshot(), meta=registry.metadata()
        )
        assert "# HELP repro_dns_resolutions DNS requests resolved" in text
        assert "# TYPE repro_dns_resolutions counter" in text
        assert "# TYPE repro_web_active gauge" in text
        assert "# TYPE repro_worker_cells counter" in text
        # Histograms describe their exported *_seconds family.
        assert (
            "# HELP repro_util_max_utilization_seconds "
            "Max server utilization" in text
        )
        # No meta -> the old bare output, unchanged.
        assert "# HELP" not in metrics_to_prom_text(registry.snapshot())

    def test_help_text_newlines_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("a", help="line1\nline2\\end").inc()
        text = metrics_to_prom_text(
            registry.snapshot(), meta=registry.metadata()
        )
        assert "# HELP repro_a line1\\nline2\\\\end" in text
        parse_prom_text(text)  # still a valid exposition


class TestParsePromText:
    def _roundtrip_text(self):
        registry = MetricsRegistry()
        registry.counter("dns.resolutions", help="Resolved").inc(7)
        histogram = registry.histogram("util.max_utilization")
        histogram.observe(0.0, 0.4)
        histogram.observe(4.0, 0.95)
        registry.register("note", lambda: "text")  # skipped sample
        return metrics_to_prom_text(
            registry.snapshot(), meta=registry.metadata()
        )

    def test_parses_its_own_exposition(self):
        exposition = parse_prom_text(self._roundtrip_text())
        assert exposition.value("repro_dns_resolutions") == 7
        assert exposition.types["repro_dns_resolutions"] == "counter"
        assert exposition.helps["repro_dns_resolutions"] == "Resolved"
        assert (
            exposition.value(
                'repro_util_max_utilization_seconds_bucket{le="+Inf"}'
            )
            == 4.0
        )
        assert exposition.value("repro_util_max_utilization_count") == 2

    def test_rejects_malformed_sample_lines(self):
        with pytest.raises(ConfigurationError):
            parse_prom_text("this is not a sample\n")
        with pytest.raises(ConfigurationError):
            parse_prom_text("repro_x not_a_number\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ConfigurationError):
            parse_prom_text("# TYPE repro_x exotic\nrepro_x 1\n")

    def test_accepts_blank_lines_and_free_comments(self):
        exposition = parse_prom_text("# a comment\n\nrepro_x 1\n")
        assert exposition.value("repro_x") == 1.0

    def test_rejects_repeated_sample_key(self):
        with pytest.raises(ConfigurationError, match="line 3: duplicate"):
            parse_prom_text('a 1\na{le="1"} 2\na 2\n')

    @pytest.mark.parametrize(
        "value", ["1_000", "infinity", "0x10", "\u0661", "1e", ".", "+NaN"]
    )
    def test_rejects_python_only_number_spellings(self, value):
        with pytest.raises(ConfigurationError, match="line 2: bad sample value"):
            parse_prom_text(f"a 1\nb {value}\n")

    def test_accepts_special_values(self):
        exposition = parse_prom_text(
            "a NaN\nb +Inf\nc -Inf\nd inf\ne -inf\nf nan\ng -1.5e-3\nh .5\n"
        )
        samples = exposition.samples
        assert samples["a"] != samples["a"] and samples["f"] != samples["f"]
        assert samples["b"] == samples["d"] == float("inf")
        assert samples["c"] == samples["e"] == -float("inf")
        assert (samples["g"], samples["h"]) == (-0.0015, 0.5)


class TestManifest:
    def test_build_manifest_fields(self):
        config = SimulationConfig(policy="RR", seed=9, duration=600.0)
        manifest = build_manifest(config, extra={"cell": 3})
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["policy"] == "RR"
        assert manifest["seed"] == 9
        assert manifest["package"]["name"] == "repro"
        assert manifest["extra"] == {"cell": 3}
        json.dumps(manifest)  # JSON-safe throughout

    def test_config_round_trips_through_manifest(self, tmp_path):
        config = SimulationConfig(
            policy="DRR2-TTL/S_K",
            seed=7,
            duration=1200.0,
            heterogeneity=50,
            trace=True,
            trace_categories=("dns", "alarm"),
        )
        path = write_manifest(config, tmp_path / "m.json")
        manifest = read_manifest(path)
        assert config_from_dict(manifest["config"]) == config

    def test_read_manifest_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "something_else"}))
        with pytest.raises(ConfigurationError):
            read_manifest(path)

    def test_non_dataclass_config_rejected(self):
        with pytest.raises(ConfigurationError):
            build_manifest({"policy": "RR"})

    def test_environment_fingerprint_fields(self):
        fingerprint = environment_fingerprint(workers=4)
        assert set(fingerprint) == {
            "python", "implementation", "platform", "machine",
            "cpu_count", "workers",
        }
        assert fingerprint["workers"] == 4
        assert environment_fingerprint()["workers"] is None

    def test_manifest_carries_environment(self, tmp_path):
        config = SimulationConfig(policy="RR", seed=1, duration=300.0)
        path = write_manifest(config, tmp_path / "m.json", workers=2)
        manifest = read_manifest(path)
        environment = manifest["environment"]
        assert environment["workers"] == 2
        assert environment["python"] == manifest["python"]
        assert environment["platform"] == manifest["platform"]
