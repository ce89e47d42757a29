"""Unit tests for the shared JSONL codec and the readers built on it."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.persistence import load_json, save_run_artifacts
from repro.experiments.simulation import run_simulation
from repro.obs import (
    JsonlWriter,
    SpanEvent,
    load_bundle,
    load_span_logs,
    read_json_object,
    read_jsonl,
    read_manifest,
    record_from_dict,
    record_to_dict,
    write_jsonl,
)
from repro.obs.spans import span_from_dict, span_to_dict
from repro.sim.tracing import TraceRecord
from repro.workload.trace import ArrivalSchedule, _rate_point

SPAN = SpanEvent(kind="lease", source="coordinator", wall=1.5, mono=0.5, cell=2)
#: A progress log holds span events too: here, a local batch's completion.
PROGRESS = SpanEvent(
    kind="complete", source="executor", wall=2.5, mono=1.5, run="r1", cell=0,
    attempt=0, worker="4242", extra={"winner": True, "elapsed": 0.5},
)

#: One well-formed line and its decoder, per JSONL format.
FORMATS = {
    "trace": (record_to_dict(TraceRecord(1.0, "dns", {"server": 1})), record_from_dict),
    "progress": (span_to_dict(PROGRESS), span_from_dict),
    "span": (span_to_dict(SPAN), span_from_dict),
    "replay": ({"t": 0.0, "rate": 2.0}, _rate_point),
}

#: A damaged line and the reason the reader gives for it. The torn
#: non-UTF-8 tail is the last line of its file, without a newline.
DAMAGE = {
    "torn-non-utf8-tail": (b'\xff{"torn', "not valid UTF-8"),
    "non-object": (b"[1, 2]\n", "not a JSON object"),
    "bad-json": (b'{"kind": "started"\n', "not valid JSON"),
}


@pytest.fixture(scope="module")
def traced_result():
    return run_simulation(
        SimulationConfig(policy="RR", duration=300.0, total_clients=50, seed=1, trace=True)
    )


def _line(record):
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def _damaged_file(tmp_path, fmt, damage):
    """good line, damaged line, then (unless it is a tail) a good line."""
    good = _line(FORMATS[fmt][0])
    bad, _ = DAMAGE[damage]
    tail = b"" if damage == "torn-non-utf8-tail" else good
    path = tmp_path / f"{fmt}.jsonl"
    path.write_bytes(good + bad + tail)
    return path, good, 1 if damage == "torn-non-utf8-tail" else 2


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestTypedErrors:
    """Every format fails only with ConfigurationError, or skips and counts."""

    def test_strict_read_raises_configuration_error(self, tmp_path, fmt, damage):
        path, _, _ = _damaged_file(tmp_path, fmt, damage)
        reason = DAMAGE[damage][1]
        with pytest.raises(ConfigurationError, match=f"{fmt}.jsonl:2: {reason}"):
            read_jsonl(path, FORMATS[fmt][1])

    def test_salvage_skips_and_counts_the_damaged_line(self, tmp_path, fmt, damage):
        path, good, intact = _damaged_file(tmp_path, fmt, damage)
        record, decode = FORMATS[fmt]
        records, found = read_jsonl(path, decode, strict=False)
        expected = record if decode is None else decode(record)
        assert records == [expected] * intact
        assert [(d.line_number, d.byte_offset, d.reason) for d in found] == [
            (2, len(good), DAMAGE[damage][1])
        ]


@pytest.mark.parametrize("damage", sorted(DAMAGE))
class TestFormatReaders:
    """The public entry points over the codec keep its contract."""

    def test_replay_schedule_raises_configuration_error(self, tmp_path, damage):
        path, _, _ = _damaged_file(tmp_path, "replay", damage)
        with pytest.raises(ConfigurationError, match="replay.jsonl:2"):
            ArrivalSchedule.from_jsonl(str(path))

    def test_span_logs_count_the_damaged_line(self, tmp_path, damage):
        path, _, intact = _damaged_file(tmp_path, "span", damage)
        assert load_span_logs([path, path]) == ([SPAN] * (2 * intact), 2)

    def test_report_bundle_names_the_first_damage(self, tmp_path, damage, traced_result):
        paths = save_run_artifacts(traced_result, tmp_path / "bundle", stem="run")
        intact = paths["trace"].read_bytes()
        bad, reason = DAMAGE[damage]
        paths["trace"].write_bytes(intact + bad)
        bundle = load_bundle(tmp_path / "bundle")
        assert bundle.trace_counts == traced_result.trace_category_counts()
        assert bundle.trace_damage.byte_offset == len(intact)
        assert bundle.trace_damage.reason == reason


class TestWholeFileJson:
    """``run.json``, manifests and saved configs fail with a typed error."""

    @pytest.mark.parametrize(
        "data", [b'{"kind": "simulation_res', b"[1]", b"\xff"], ids=["torn", "array", "non-utf8"]
    )
    def test_every_whole_file_reader_names_the_path(self, tmp_path, data):
        path = tmp_path / "run.json"
        path.write_bytes(data)
        for reader in (read_json_object, read_manifest, load_json):
            with pytest.raises(ConfigurationError, match="run.json: not"):
                reader(path)

    def test_report_on_a_truncated_result_raises_configuration_error(
        self, tmp_path, traced_result, capsys
    ):
        paths = save_run_artifacts(traced_result, tmp_path, stem="run")
        paths["result"].write_text(paths["result"].read_text()[:100])
        assert main(["report", str(tmp_path)]) == 2
        assert "run.json: not valid JSON" in capsys.readouterr().err


class TestWriters:
    def test_write_jsonl_bytes_are_sorted_compact_json_lines(self, tmp_path):
        path = write_jsonl(tmp_path / "sub" / "a.jsonl", [{"b": 1, "a": [2]}, {}])
        assert path.read_bytes() == b'{"a": [2], "b": 1}\n{}\n'

    def test_live_writer_truncates_or_appends_on_first_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        for append, expected in ((True, [{"old": True}, {"new": 1}]), (False, [{"new": 1}])):
            path.write_text('{"old": true}\n')
            writer = JsonlWriter(path, append=append)
            assert path.read_text() == '{"old": true}\n'  # nothing opened yet
            writer.write({"new": 1})
            assert read_jsonl(path) == (expected, [])  # flushed, not closed
            writer.close()

    def test_blank_lines_are_neither_records_nor_damage(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_bytes(b'\n  \r\n{"a": 1}\r\n\n')
        assert read_jsonl(path, strict=False) == ([{"a": 1}], [])
