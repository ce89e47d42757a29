"""Unit tests for streaming progress sinks and executor heartbeats."""

import io

import pytest

from repro.errors import ConfigurationError
from repro.experiments.executor import ParallelExecutor
from repro.obs import (
    FINISHED,
    ROSTER,
    STARTED,
    JsonlProgressSink,
    ProgressEvent,
    ProgressSink,
    TeeProgressSink,
    TerminalProgressRenderer,
    read_jsonl,
)


def _double(value):
    """Module-level so it pickles for the process-pool paths."""
    return value * 2


class RecordingSink(ProgressSink):
    """Keeps every callback for assertions."""

    def __init__(self):
        self.begins = []
        self.events = []
        self.finishes = []
        self.closed = 0

    def begin(self, total, workers):
        self.begins.append((total, workers))

    def emit(self, event):
        self.events.append(event)

    def finish(self, stats=None):
        self.finishes.append(stats)

    def close(self):
        self.closed += 1


def _events_by_cell(events):
    by_cell = {}
    for event in events:
        by_cell.setdefault(event.index, []).append(event.kind)
    return by_cell


class TestExecutorHeartbeats:
    def test_serial_emits_one_started_one_finished_per_cell(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=1, progress=sink)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert sink.begins == [(3, 1)]
        assert _events_by_cell(sink.events) == {
            0: [STARTED, FINISHED],
            1: [STARTED, FINISHED],
            2: [STARTED, FINISHED],
        }
        assert sink.finishes == [executor.last_stats]

    def test_parallel_emits_one_started_one_finished_per_cell(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=2, chunk_size=1, progress=sink)
        items = list(range(5))
        assert executor.map(_double, items) == [v * 2 for v in items]
        by_cell = _events_by_cell(sink.events)
        assert set(by_cell) == set(range(5))
        for kinds in by_cell.values():
            assert sorted(kinds) == sorted([STARTED, FINISHED])
        assert sink.begins == [(5, 2)]
        assert sink.finishes == [executor.last_stats]

    def test_labels_carried_on_events(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=1, progress=sink)
        executor.map(_double, [1, 2], labels=["a", "b"])
        assert {e.label for e in sink.events} == {"a", "b"}

    def test_finished_events_carry_elapsed(self):
        sink = RecordingSink()
        ParallelExecutor(workers=1, progress=sink).map(_double, [1])
        finished = [e for e in sink.events if e.kind == FINISHED]
        assert len(finished) == 1
        assert finished[0].elapsed is not None
        assert finished[0].elapsed >= 0
        assert finished[0].worker is not None

    def test_label_count_mismatch_rejected(self):
        executor = ParallelExecutor(workers=1)
        with pytest.raises(ConfigurationError):
            executor.map(_double, [1, 2], labels=["only-one"])

    def test_exception_reports_finish_none(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=1, progress=sink)

        def boom(value):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            executor.map(boom, [1])
        assert sink.finishes == [None]

    def test_no_sink_means_no_events(self):
        executor = ParallelExecutor(workers=1)
        assert executor.progress is None
        assert executor.map(_double, [1, 2]) == [2, 4]


class TestJsonlProgressSink:
    def test_log_schema_and_roundtrip(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        executor = ParallelExecutor(workers=1, progress=sink)
        executor.map(_double, [1, 2], labels=["x", "y"])
        sink.close()
        records, _ = read_jsonl(path)
        assert [r["event"] for r in records] == [
            "begin", "started", "finished", "started", "finished", "end",
        ]
        begin, end = records[0], records[-1]
        assert begin["total"] == 2
        assert begin["workers"] == 1
        assert end["cells"] == 2
        assert end["wall_time"] >= 0
        started = [r for r in records if r["event"] == "started"]
        assert [r["label"] for r in started] == ["x", "y"]
        assert all("t" in r for r in records)

    def test_error_batch_logs_end_error(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        sink.begin(1, 1)
        sink.finish(None)
        sink.close()
        records, _ = read_jsonl(path)
        assert records[-1]["event"] == "end"
        assert records[-1]["error"] is True

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "p.jsonl"
        sink = JsonlProgressSink(path)
        sink.begin(0, 1)
        sink.close()
        assert path.exists()

    def test_close_without_writes_is_fine(self, tmp_path):
        JsonlProgressSink(tmp_path / "never.jsonl").close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_roster_events_logged_with_worker_count(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        sink.begin(2, 0)
        sink.emit(ProgressEvent(ROSTER, -1, workers=2, timestamp=12.5))
        sink.emit(ProgressEvent(ROSTER, -1, workers=1, timestamp=13.0))
        sink.close()
        records, _ = read_jsonl(path)
        rosters = [r for r in records if r["event"] == "roster"]
        assert [r["workers"] for r in rosters] == [2, 1]
        assert all("t" in r for r in rosters)


class TestTerminalProgressRenderer:
    def _renderer(self):
        stream = io.StringIO()
        return TerminalProgressRenderer(stream=stream, min_interval=0.0), stream

    def test_status_line_counts_and_busy_cells(self):
        renderer, stream = self._renderer()
        renderer.begin(8, 4)
        renderer.emit(ProgressEvent(STARTED, 0, label="policy=RR"))
        renderer.emit(ProgressEvent(STARTED, 1))
        line = renderer.status_line()
        assert "cells 0/8" in line
        assert "busy 2" in line
        assert "policy=RR" in line
        assert "cell 1" in line
        renderer.emit(ProgressEvent(FINISHED, 0, elapsed=0.5))
        assert "cells 1/8" in renderer.status_line()
        assert "\r" in stream.getvalue()

    def test_eta_from_observed_cell_times(self):
        renderer, _ = self._renderer()
        renderer.begin(4, 2)
        renderer.emit(ProgressEvent(FINISHED, 0, elapsed=2.0))
        renderer.emit(ProgressEvent(FINISHED, 1, elapsed=4.0))
        # 2 remaining cells at mean 3 s over 2 workers.
        assert renderer.eta_seconds() == pytest.approx(3.0)

    def test_eta_unknown_before_first_finish(self):
        renderer, _ = self._renderer()
        renderer.begin(4, 1)
        assert renderer.eta_seconds() is None
        assert "ETA --" in renderer.status_line()

    def test_busy_list_truncated_beyond_four(self):
        renderer, _ = self._renderer()
        renderer.begin(10, 10)
        for index in range(6):
            renderer.emit(ProgressEvent(STARTED, index))
        assert "+2 more" in renderer.status_line()

    def test_finish_writes_newline(self):
        renderer, stream = self._renderer()
        renderer.begin(1, 1)
        renderer.finish()
        assert stream.getvalue().endswith("\n")

    def test_reusable_across_batches(self):
        renderer, _ = self._renderer()
        renderer.begin(2, 1)
        renderer.emit(ProgressEvent(FINISHED, 0, elapsed=1.0))
        renderer.begin(3, 1)
        assert renderer.finished == 0
        assert renderer.total == 3
        assert renderer.eta_seconds() is None

    def test_roster_events_drive_a_live_worker_count(self):
        # A remote batch starts with an unknown roster (begin(..., 0));
        # the line shows the roster as workers join and die.
        renderer, _ = self._renderer()
        renderer.begin(6, 0)
        assert "workers" not in renderer.status_line()
        renderer.emit(ProgressEvent(ROSTER, -1, workers=2))
        assert "workers 2" in renderer.status_line()
        renderer.emit(ProgressEvent(ROSTER, -1, workers=3))
        assert "workers 3" in renderer.status_line()
        renderer.emit(ProgressEvent(ROSTER, -1, workers=1))  # one died
        assert "workers 1" in renderer.status_line()

    def test_roster_size_feeds_the_eta(self):
        renderer, _ = self._renderer()
        renderer.begin(6, 0)
        renderer.emit(ProgressEvent(ROSTER, -1, workers=2))
        renderer.emit(ProgressEvent(FINISHED, 0, elapsed=4.0))
        renderer.emit(ProgressEvent(FINISHED, 1, elapsed=2.0))
        # 4 remaining at mean 3 s over the live roster of 2.
        assert renderer.eta_seconds() == pytest.approx(6.0)

    def test_roster_does_not_count_as_a_busy_cell(self):
        renderer, _ = self._renderer()
        renderer.begin(4, 0)
        renderer.emit(ProgressEvent(ROSTER, -1, workers=1))
        renderer.emit(ProgressEvent(STARTED, 0))
        assert "busy 1" in renderer.status_line()


class TestTeeProgressSink:
    def test_fans_out_every_callback(self):
        first, second = RecordingSink(), RecordingSink()
        tee = TeeProgressSink([first, second])
        tee.begin(2, 1)
        tee.emit(ProgressEvent(STARTED, 0))
        tee.finish()
        tee.close()
        for sink in (first, second):
            assert sink.begins == [(2, 1)]
            assert len(sink.events) == 1
            assert sink.finishes == [None]
            assert sink.closed == 1


class TestSalvageProgressJsonl:
    """Torn heartbeat lines are normal operation, not corruption."""

    def _write(self, tmp_path, text):
        path = tmp_path / "progress.jsonl"
        path.write_text(text, encoding="utf-8")
        return path

    def test_clean_log_salvages_everything(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"kind": "started", "cell": 0}\n'
            '{"kind": "finished", "cell": 0, "elapsed": 0.5}\n',
        )
        records, damage = read_jsonl(path, strict=False)
        assert [r["kind"] for r in records] == ["started", "finished"]
        assert len(damage) == 0

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"kind": "started", "cell": 0}\n'
            '{"kind": "finis',  # writer killed mid-line
        )
        records, damage = read_jsonl(path, strict=False)
        assert [r["cell"] for r in records] == [0]
        assert len(damage) == 1

    def test_interior_garbage_does_not_break_later_records(self, tmp_path):
        path = self._write(
            tmp_path,
            '{"kind": "started", "cell": 0}\n'
            "not json at all\n"
            "[1, 2, 3]\n"  # valid JSON but not a record object
            '{"kind": "finished", "cell": 0}\n',
        )
        records, damage = read_jsonl(path, strict=False)
        assert [r["kind"] for r in records] == ["started", "finished"]
        assert len(damage) == 2

    def test_strict_read_still_raises(self, tmp_path):
        path = self._write(tmp_path, '{"kind": "started"\n')
        with pytest.raises(ConfigurationError, match="progress.jsonl:1"):
            read_jsonl(path)

    def test_non_strict_read_delegates_to_salvage(self, tmp_path):
        path = self._write(
            tmp_path, '{"kind": "started", "cell": 4}\n{"torn'
        )
        records, _ = read_jsonl(path, strict=False)
        assert [r["cell"] for r in records] == [4]

    def test_multiple_interleaved_tears_and_truncated_final(self, tmp_path):
        # A log stitched together from several partial captures of a
        # killed worker: tears appear *between* good records repeatedly,
        # and the final record is cut mid-write.
        good = [
            '{"event": "begin", "total": 3, "workers": 0}',
            '{"event": "roster", "workers": 2, "t": 1.0}',
            '{"event": "started", "cell": 0, "t": 1.1}',
            '{"event": "finished", "cell": 0, "elapsed": 0.4, "t": 1.5}',
            '{"event": "started", "cell": 1, "t": 1.6}',
        ]
        torn = [
            '{"event": "fini',
            '{"event": "started", "ce',
            "",  # blank lines are ignored, not counted
        ]
        lines = [
            good[0], torn[0], good[1], torn[2], good[2], torn[1],
            good[3], good[4],
        ]
        truncated_final = '{"event": "finished", "cell": 1, "elap'
        path = self._write(
            tmp_path, "\n".join(lines) + "\n" + truncated_final
        )
        records, damage = read_jsonl(path, strict=False)
        assert [r["event"] for r in records] == [
            "begin", "roster", "started", "finished", "started",
        ]
        assert len(damage) == 3  # two interior tears + the truncated final
