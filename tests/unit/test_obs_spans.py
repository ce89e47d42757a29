"""Unit tests for fabric span events, salvage, and reconstruction."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import spans
from repro.obs.jsonl import read_jsonl
from repro.obs.spans import (
    AttemptRecord,
    FabricTimeline,
    SpanEvent,
    SpanRecorder,
    crash_file_name,
    load_span_logs,
    render_fabric_timeline,
    span_from_dict,
    span_to_dict,
)


def _event(kind, source="coordinator", mono=0.0, **kwargs):
    extra = kwargs.pop("extra", {})
    return SpanEvent(
        kind=kind, source=source, wall=1000.0 + mono, mono=mono,
        extra=extra, **kwargs,
    )


class TestSpanEventSerialization:
    def test_roundtrip_preserves_every_field(self):
        event = _event(
            spans.LEASE, mono=2.5, run="r1", cell=3, attempt=1,
            worker="w1", extra={"label": "RR"},
        )
        rebuilt = span_from_dict(span_to_dict(event))
        assert rebuilt == event

    def test_none_fields_are_omitted_from_the_record(self):
        record = span_to_dict(_event(spans.BATCH_BEGIN, mono=0.0))
        assert set(record) == {"kind", "source", "wall", "mono"}

    def test_malformed_record_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            span_from_dict({"kind": "lease"})  # no source/wall/mono
        with pytest.raises(ConfigurationError):
            span_from_dict(
                {"kind": "x", "source": "c", "wall": 1.0, "mono": 1.0,
                 "extra": "not-a-dict"}
            )


class TestSpanRecorder:
    def test_appends_jsonl_and_flushes_per_event(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        recorder = SpanRecorder(path, source="coordinator")
        assert recorder.enabled
        recorder.emit(spans.SUBMIT, run="r1", cell=0, label="RR")
        recorder.emit(spans.LEASE, run="r1", cell=0, attempt=0, worker="w1")
        # Flushed without close(): the log is tail-able while live.
        events, _ = read_jsonl(path, span_from_dict)
        assert [e.kind for e in events] == [spans.SUBMIT, spans.LEASE]
        assert events[0].extra == {"label": "RR"}
        assert events[0].source == "coordinator"
        recorder.close()

    def test_path_is_created_lazily(self, tmp_path):
        path = tmp_path / "sub" / "dir" / "spans.jsonl"
        recorder = SpanRecorder(path, source="w")
        assert not path.parent.exists()
        recorder.emit(spans.SESSION)
        assert path.exists()
        recorder.close()

    def test_ring_keeps_only_the_last_n_events(self, tmp_path):
        recorder = SpanRecorder(source="w1", ring_size=3)
        assert recorder.enabled
        for cell in range(10):
            recorder.emit(spans.EXECUTE, cell=cell)
        out = tmp_path / "crash.jsonl"
        assert recorder.flush_ring(out) == out
        cells = [e.cell for e in read_jsonl(out, span_from_dict)[0]]
        assert cells == [7, 8, 9]

    def test_flush_ring_is_repeatable(self, tmp_path):
        # SIGTERM racing an excepthook must not lose the forensics.
        recorder = SpanRecorder(source="w1", ring_size=4)
        recorder.emit(spans.CRASH, reason="test")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        recorder.flush_ring(first)
        recorder.flush_ring(second)
        assert first.read_text() == second.read_text()

    def test_flush_ring_without_a_ring_returns_none(self, tmp_path):
        recorder = SpanRecorder(tmp_path / "s.jsonl", source="c")
        recorder.emit(spans.SUBMIT, cell=0)
        assert recorder.flush_ring(tmp_path / "crash.jsonl") is None
        recorder.close()

    def test_negative_ring_size_rejected(self):
        with pytest.raises(ConfigurationError):
            SpanRecorder(source="w", ring_size=-1)


class TestCrashFileName:
    def test_host_pid_ids_become_portable_names(self):
        assert crash_file_name("myhost:4242") == "crash-myhost-4242.jsonl"

    def test_hostile_characters_are_mapped(self):
        assert crash_file_name("a/b c*") == "crash-a-b-c-.jsonl"


class TestSalvage:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_skips_interleaved_torn_lines(self, tmp_path):
        good = json.dumps(span_to_dict(_event(spans.SUBMIT, cell=0)))
        good2 = json.dumps(span_to_dict(_event(spans.LEASE, cell=0)))
        path = tmp_path / "spans.jsonl"
        # Two torn lines *between* good records — a log stitched from
        # partial captures — plus junk JSON types.
        self._write(
            path,
            [good, good[: len(good) // 2], '"just a string"', good2,
             '{"kind": "lease"}'],
        )
        events, damage = read_jsonl(path, span_from_dict, strict=False)
        assert [e.kind for e in events] == [spans.SUBMIT, spans.LEASE]
        assert len(damage) == 3

    def test_truncated_final_record(self, tmp_path):
        good = json.dumps(span_to_dict(_event(spans.SUBMIT, cell=1)))
        path = tmp_path / "spans.jsonl"
        path.write_text(good + "\n" + good[:-7])  # kill mid-write
        events, damage = read_jsonl(path, span_from_dict, strict=False)
        assert len(events) == 1 and len(damage) == 1

    def test_strict_read_raises_where_salvage_skips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(path, span_from_dict)
        assert read_jsonl(path, span_from_dict, strict=False)[0] == []

    def test_load_span_logs_merges_files_and_counts_tears(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [json.dumps(span_to_dict(_event(spans.SUBMIT, cell=0)))])
        self._write(
            b,
            [json.dumps(span_to_dict(_event(spans.EXECUTE, cell=0))), "torn{"],
        )
        events, skipped = load_span_logs([a, b])
        assert {e.kind for e in events} == {spans.SUBMIT, spans.EXECUTE}
        assert skipped == 1


def _happy_run(run="r1"):
    """Coordinator + worker events for a clean 2-cell, 1-worker batch."""
    coordinator = [
        _event(spans.BATCH_BEGIN, mono=0.0, run=run, extra={"cells": 2}),
        _event(spans.SUBMIT, mono=0.1, run=run, cell=0,
               extra={"label": "RR"}),
        _event(spans.SUBMIT, mono=0.1, run=run, cell=1,
               extra={"label": "DAL"}),
        _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
               worker="w1"),
        _event(spans.COMPLETE, mono=3.0, run=run, cell=0, attempt=0,
               worker="w1", extra={"winner": True}),
        _event(spans.LEASE, mono=3.1, run=run, cell=1, attempt=0,
               worker="w1"),
        _event(spans.COMPLETE, mono=5.0, run=run, cell=1, attempt=0,
               worker="w1", extra={"winner": True}),
        _event(spans.BATCH_END, mono=5.2, run=run, extra={"cells": 2}),
    ]
    worker = [
        _event(spans.EXECUTE, source="w1", mono=100.0, run=run, cell=0,
               attempt=0, worker="w1"),
        _event(spans.FINISH, source="w1", mono=101.5, run=run, cell=0,
               attempt=0, worker="w1", extra={"elapsed": 1.5}),
        _event(spans.EXECUTE, source="w1", mono=102.0, run=run, cell=1,
               attempt=0, worker="w1"),
        _event(spans.FINISH, source="w1", mono=103.0, run=run, cell=1,
               attempt=0, worker="w1", extra={"elapsed": 1.0}),
    ]
    return coordinator + worker


class TestFabricTimeline:
    def test_happy_path_reconciles_clean(self):
        timeline = FabricTimeline.from_events(_happy_run())
        report = timeline.reconcile()
        assert report.ok, report.problems
        assert report.cells == 2
        assert report.attempts == 2
        assert report.releases == 0
        assert timeline.wall_seconds() == pytest.approx(5.2)
        assert timeline.cells[0].label == "RR"

    def test_phases_decompose_on_same_source_monotonic_clocks(self):
        timeline = FabricTimeline.from_events(_happy_run())
        phases = timeline.cells[0].phases()
        # queue: submit 0.1 -> lease 1.0 (coordinator clock).
        assert phases["queue"] == pytest.approx(0.9)
        # execute: the worker's own elapsed measurement.
        assert phases["execute"] == pytest.approx(1.5)
        # stream: lease->complete (2.0s, coordinator) minus execute.
        assert phases["stream"] == pytest.approx(0.5)
        assert phases["total"] == pytest.approx(2.9)

    def test_picks_last_run_by_default(self):
        events = _happy_run("first") + _happy_run("second")
        assert FabricTimeline.runs(events) == ["first", "second"]
        assert FabricTimeline.from_events(events).run == "second"
        assert FabricTimeline.from_events(events, run="first").run == "first"

    def test_crash_and_re_lease_reconciles(self):
        run = "r1"
        events = [
            _event(spans.BATCH_BEGIN, mono=0.0, run=run, extra={"cells": 1}),
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.EXPIRE, mono=31.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.LEASE, mono=31.5, run=run, cell=0, attempt=1,
                   worker="w2"),
            _event(spans.COMPLETE, mono=33.0, run=run, cell=0, attempt=1,
                   worker="w2", extra={"winner": True}),
            _event(spans.BATCH_END, mono=33.5, run=run),
        ]
        timeline = FabricTimeline.from_events(events)
        report = timeline.reconcile()
        assert report.ok, report.problems
        assert report.attempts == 2
        assert report.releases == 1
        winner = timeline.cells[0].winning_attempt()
        assert winner.attempt == 1 and winner.worker == "w2"

    def test_expiry_resolved_by_racing_completion_is_legal(self):
        run = "r1"
        events = [
            _event(spans.BATCH_BEGIN, mono=0.0, run=run, extra={"cells": 1}),
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.EXPIRE, mono=31.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            # The stalled worker finished anyway; no re-lease happened.
            _event(spans.COMPLETE, mono=31.2, run=run, cell=0, attempt=0,
                   worker="w1", extra={"winner": True}),
            _event(spans.BATCH_END, mono=31.5, run=run),
        ]
        report = FabricTimeline.from_events(events).reconcile()
        assert report.ok, report.problems

    def test_missing_cell_and_unexpected_cell_flagged(self):
        run = "r1"
        events = [
            _event(spans.BATCH_BEGIN, mono=0.0, run=run, extra={"cells": 2}),
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.COMPLETE, mono=2.0, run=run, cell=0, attempt=0,
                   worker="w1", extra={"winner": True}),
            _event(spans.SUBMIT, mono=0.1, run=run, cell=7),
            _event(spans.LEASE, mono=1.0, run=run, cell=7, attempt=0,
                   worker="w1"),
            _event(spans.COMPLETE, mono=2.0, run=run, cell=7, attempt=0,
                   worker="w1", extra={"winner": True}),
        ]
        problems = FabricTimeline.from_events(events).reconcile().problems
        assert any("never seen: [1]" in p for p in problems)
        assert any("outside the declared batch: [7]" in p for p in problems)

    def test_double_winner_and_attempt_gap_flagged(self):
        run = "r1"
        events = [
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.COMPLETE, mono=2.0, run=run, cell=0, attempt=0,
                   worker="w1", extra={"winner": True}),
            # A second "first" completion and a lease record lost in
            # between (attempt jumps 0 -> 2).
            _event(spans.LEASE, mono=3.0, run=run, cell=0, attempt=2,
                   worker="w2"),
            _event(spans.COMPLETE, mono=4.0, run=run, cell=0, attempt=2,
                   worker="w2", extra={"winner": True}),
        ]
        problems = FabricTimeline.from_events(events).reconcile().problems
        assert any("2 winning attempts" in p for p in problems)
        assert any("not gapless" in p for p in problems)

    def test_dangling_lease_flagged(self):
        run = "r1"
        events = [
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
        ]
        problems = FabricTimeline.from_events(events).reconcile().problems
        assert any("no terminal event" in p for p in problems)

    def test_execution_by_wrong_worker_flagged(self):
        run = "r1"
        events = [
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.EXECUTE, source="w2", mono=50.0, run=run, cell=0,
                   attempt=0),
            _event(spans.COMPLETE, mono=2.0, run=run, cell=0, attempt=0,
                   worker="w1", extra={"winner": True}),
        ]
        problems = FabricTimeline.from_events(events).reconcile().problems
        assert any("executed by 'w2' but leased to 'w1'" in p
                   for p in problems)

    def test_worker_lanes_group_and_sort_attempts(self):
        timeline = FabricTimeline.from_events(_happy_run())
        lanes = timeline.worker_lanes()
        assert list(lanes) == ["w1"]
        assert [a.cell for a in lanes["w1"]] == [0, 1]


class TestAttemptRecord:
    def test_execute_seconds_prefers_worker_elapsed(self):
        record = AttemptRecord(cell=0, attempt=0)
        record.executed = _event(spans.EXECUTE, source="w1", mono=10.0)
        record.finished = _event(
            spans.FINISH, source="w1", mono=14.0, extra={"elapsed": 3.5}
        )
        assert record.execute_seconds == pytest.approx(3.5)

    def test_execute_seconds_falls_back_to_monotonic_diff(self):
        record = AttemptRecord(cell=0, attempt=0)
        record.executed = _event(spans.EXECUTE, source="w1", mono=10.0)
        record.finished = _event(spans.FINISH, source="w1", mono=14.0)
        assert record.execute_seconds == pytest.approx(4.0)


class TestRenderFabricTimeline:
    def test_report_covers_every_section(self):
        run = "r1"
        events = _happy_run(run) + [
            _event(spans.WORKER_JOIN, mono=0.5, run=run, worker="w1"),
            _event(spans.WORKER_LEAVE, mono=5.1, run=run, worker="w1"),
        ]
        text = render_fabric_timeline(FabricTimeline.from_events(events))
        assert "fabric run r1: 2 cells, 1 worker(s)" in text
        assert "reconciliation: OK" in text
        assert "phase totals (winning attempts):" in text
        assert "per-worker lanes:" in text
        assert "stragglers (slowest 2):" in text
        assert "(RR)" in text

    def test_re_lease_annotations(self):
        run = "r1"
        events = [
            _event(spans.BATCH_BEGIN, mono=0.0, run=run, extra={"cells": 1}),
            _event(spans.SUBMIT, mono=0.1, run=run, cell=0),
            _event(spans.LEASE, mono=1.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.RELEASE, mono=2.0, run=run, cell=0, attempt=0,
                   worker="w1"),
            _event(spans.LEASE, mono=2.5, run=run, cell=0, attempt=1,
                   worker="w2"),
            _event(spans.COMPLETE, mono=4.0, run=run, cell=0, attempt=1,
                   worker="w2", extra={"winner": True}),
            _event(spans.BATCH_END, mono=4.5, run=run),
        ]
        text = render_fabric_timeline(FabricTimeline.from_events(events))
        assert "re-leases:" in text
        assert "attempt 0 (w1) released -> attempt 1 (w2, won)" in text
