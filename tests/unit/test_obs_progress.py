"""Unit tests for streaming progress sinks and the executor's span events."""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.dispatch import Coordinator, bind_listener
from repro.experiments.executor import ParallelExecutor
from repro.obs import (
    FabricTimeline,
    JsonlProgressSink,
    ProgressSink,
    SpanEvent,
    TeeProgressSink,
    TerminalProgressRenderer,
    load_span_logs,
    read_jsonl,
)
from repro.obs.spans import (
    BATCH_BEGIN,
    BATCH_END,
    COMPLETE,
    EXPIRE,
    LEASE,
    RELEASE,
    SUBMIT,
    WORKER_JOIN,
    WORKER_LEAVE,
    span_from_dict,
)


def _double(value):
    """Module-level so it pickles for the process-pool paths."""
    return value * 2


def _event(kind, cell=None, **extra):
    return SpanEvent(kind, "test", wall=0.0, mono=0.0, cell=cell, extra=extra)


def _done(cell, elapsed=None):
    return _event(COMPLETE, cell, winner=True, elapsed=elapsed)


class RecordingSink(ProgressSink):
    """Keeps every event for assertions."""

    def __init__(self):
        self.events = []
        self.closed = 0

    def emit(self, event):
        self.events.append(event)

    def close(self):
        self.closed += 1

    def kinds(self, kind):
        return [e for e in self.events if e.kind == kind]


def _cell_kinds(events):
    by_cell = {}
    for event in events:
        if event.cell is not None:
            by_cell.setdefault(event.cell, []).append(event.kind)
    return by_cell


class TestExecutorHeartbeats:
    def test_serial_emits_one_started_one_finished_per_cell(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=1, progress=sink)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        begin, end = sink.events[0], sink.events[-1]
        assert (begin.kind, begin.extra) == (BATCH_BEGIN, {"cells": 3, "workers": 1})
        assert end.kind == BATCH_END
        assert end.extra == {
            "cells": 3, "wall_time": executor.last_stats.wall_time,
        }
        assert _cell_kinds(sink.events) == {
            cell: [SUBMIT, LEASE, COMPLETE] for cell in range(3)
        }
        # One run, one source: the events form one reconcilable timeline.
        assert {(e.run, e.source) for e in sink.events} == {
            (begin.run, "executor")
        }
        assert FabricTimeline.from_events(sink.events).reconcile().ok

    def test_parallel_emits_one_started_one_finished_per_cell(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=2, chunk_size=1, progress=sink)
        items = list(range(5))
        assert executor.map(_double, items) == [v * 2 for v in items]
        by_cell = _cell_kinds(sink.events)
        assert set(by_cell) == set(range(5))
        for kinds in by_cell.values():
            assert kinds == [SUBMIT, LEASE, COMPLETE]
        assert sink.events[0].extra == {"cells": 5, "workers": 2}
        assert sink.events[-1].extra["cells"] == 5
        # Stamped in this process, on one monotonic clock, in order.
        monos = [e.mono for e in sink.events]
        assert monos == sorted(monos)
        assert FabricTimeline.from_events(sink.events).reconcile().ok

    def test_labels_carried_on_events(self):
        sink = RecordingSink()
        executor = ParallelExecutor(workers=1, progress=sink)
        executor.map(_double, [1, 2], labels=["a", "b"])
        for kind in (SUBMIT, LEASE, COMPLETE):
            assert [e.extra["label"] for e in sink.kinds(kind)] == ["a", "b"]

    def test_finished_events_carry_elapsed(self):
        sink = RecordingSink()
        ParallelExecutor(workers=1, progress=sink).map(_double, [1])
        finished = sink.kinds(COMPLETE)
        assert len(finished) == 1
        assert finished[0].extra["winner"] is True
        assert finished[0].extra["elapsed"] >= 0
        assert finished[0].worker is not None
        assert finished[0].attempt == 0

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
        assert sink.events[-1].kind == BATCH_END
        assert sink.events[-1].extra == {"error": True}

    def test_no_sink_means_no_events(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a SpanEvent was built with no observer")

        monkeypatch.setattr(SpanEvent, "__init__", refuse)
        executor = ParallelExecutor(workers=1)
        assert executor.progress is None
        assert executor.map(_double, [1, 2]) == [2, 4]
        assert ParallelExecutor(workers=2).map(_double, [1, 2, 3]) == [2, 4, 6]
        # A coordinator with neither a span log nor a sink builds none
        # either, even for the batch-level events of an empty batch.
        listener = bind_listener(("127.0.0.1", 0))
        try:
            coordinator = Coordinator([], listener=listener)
            assert coordinator.run().results == []
            coordinator._span(LEASE, cell=0, attempt=0, worker="w")
        finally:
            listener.close()


class TestJsonlProgressSink:
    def test_log_schema_and_roundtrip(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        executor = ParallelExecutor(workers=1, progress=sink)
        executor.map(_double, [1, 2], labels=["x", "y"])
        sink.close()
        events, skipped = load_span_logs([path])
        assert skipped == 0
        assert [e.kind for e in events] == [
            BATCH_BEGIN, SUBMIT, SUBMIT,
            LEASE, COMPLETE, LEASE, COMPLETE, BATCH_END,
        ]
        begin, end = events[0], events[-1]
        assert begin.extra == {"cells": 2, "workers": 1}
        assert end.extra["cells"] == 2
        assert end.extra["wall_time"] >= 0
        assert [e.extra["label"] for e in events if e.kind == LEASE] == ["x", "y"]
        records, _ = read_jsonl(path)
        assert all("wall" in r and "mono" in r for r in records)
        assert [span_from_dict(r) for r in records] == events

    def test_error_batch_logs_end_error(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)

        def boom(value):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            ParallelExecutor(workers=1, progress=sink).map(boom, [1])
        sink.close()
        events, _ = load_span_logs([path])
        assert events[-1].kind == BATCH_END
        assert events[-1].extra["error"] is True

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "p.jsonl"
        sink = JsonlProgressSink(path)
        sink.emit(_event(BATCH_BEGIN, cells=0, workers=1))
        sink.close()
        assert path.exists()

    def test_close_without_writes_is_fine(self, tmp_path):
        JsonlProgressSink(tmp_path / "never.jsonl").close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_roster_events_logged_with_worker_count(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(path)
        sink.emit(_event(BATCH_BEGIN, cells=2))
        sink.emit(_event(WORKER_JOIN, connected=2))
        sink.emit(_event(WORKER_LEAVE, connected=1))
        sink.close()
        events, _ = load_span_logs([path])
        roster = [e for e in events if e.kind in (WORKER_JOIN, WORKER_LEAVE)]
        assert [e.extra["connected"] for e in roster] == [2, 1]


class TestTerminalProgressRenderer:
    def _renderer(self):
        stream = io.StringIO()
        return TerminalProgressRenderer(stream=stream, min_interval=0.0), stream

    def _begin(self, renderer, cells, workers=None):
        extra = {"cells": cells}
        if workers is not None:
            extra["workers"] = workers
        renderer.emit(_event(BATCH_BEGIN, **extra))

    def test_status_line_counts_and_busy_cells(self):
        renderer, stream = self._renderer()
        self._begin(renderer, 8, 4)
        renderer.emit(_event(LEASE, 0, label="policy=RR"))
        renderer.emit(_event(LEASE, 1))
        line = renderer.status_line()
        assert "cells 0/8" in line
        assert "busy 2" in line
        assert "policy=RR" in line
        assert "cell 1" in line
        renderer.emit(_done(0, elapsed=0.5))
        assert "cells 1/8" in renderer.status_line()
        assert "\r" in stream.getvalue()

    def test_eta_from_observed_cell_times(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 4, 2)
        renderer.emit(_done(0, elapsed=2.0))
        renderer.emit(_done(1, elapsed=4.0))
        # A losing duplicate completion (re-leased cell) counts nothing.
        renderer.emit(_event(COMPLETE, 1, winner=False, elapsed=9.0))
        # 2 remaining cells at mean 3 s over 2 workers.
        assert renderer.eta_seconds() == pytest.approx(3.0)

    def test_eta_unknown_before_first_finish(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 4, 1)
        assert renderer.eta_seconds() is None
        assert "ETA --" in renderer.status_line()

    def test_busy_list_truncated_beyond_four(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 10, 10)
        for index in range(6):
            renderer.emit(_event(LEASE, index))
        assert "+2 more" in renderer.status_line()

    def test_finish_writes_newline(self):
        renderer, stream = self._renderer()
        self._begin(renderer, 1, 1)
        renderer.emit(_event(BATCH_END, error=True))
        assert stream.getvalue().endswith("\n")

    def test_reusable_across_batches(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 2, 1)
        renderer.emit(_done(0, elapsed=1.0))
        self._begin(renderer, 3, 1)
        assert renderer.finished == 0
        assert renderer.total == 3
        assert renderer.eta_seconds() is None

    def test_roster_events_drive_a_live_worker_count(self):
        # A remote batch starts with an unknown roster (no "workers" on
        # batch-begin); the line shows the roster as workers join and die.
        renderer, _ = self._renderer()
        self._begin(renderer, 6)
        assert "workers" not in renderer.status_line()
        renderer.emit(_event(WORKER_JOIN, connected=2))
        assert "workers 2" in renderer.status_line()
        renderer.emit(_event(WORKER_JOIN, connected=3))
        assert "workers 3" in renderer.status_line()
        renderer.emit(_event(WORKER_LEAVE, connected=1))  # one died
        assert "workers 1" in renderer.status_line()

    def test_roster_size_feeds_the_eta(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 6)
        renderer.emit(_event(WORKER_JOIN, connected=2))
        renderer.emit(_done(0, elapsed=4.0))
        renderer.emit(_done(1, elapsed=2.0))
        # 4 remaining at mean 3 s over the live roster of 2.
        assert renderer.eta_seconds() == pytest.approx(6.0)

    def test_roster_does_not_count_as_a_busy_cell(self):
        renderer, _ = self._renderer()
        self._begin(renderer, 4)
        renderer.emit(_event(WORKER_JOIN, connected=1))
        renderer.emit(_event(LEASE, 0))
        assert "busy 1" in renderer.status_line()

    @pytest.mark.parametrize("kind", [EXPIRE, RELEASE])
    def test_lost_lease_is_no_longer_busy(self, kind):
        renderer, _ = self._renderer()
        self._begin(renderer, 4)
        renderer.emit(_event(LEASE, 0, label="policy=RR"))
        assert "busy 1" in renderer.status_line()
        renderer.emit(_event(kind, 0))
        line = renderer.status_line()
        assert "busy" not in line
        assert "policy=RR" not in line
        assert "cells 0/4" in line


class TestTeeProgressSink:
    def test_fans_out_every_callback(self):
        first, second = RecordingSink(), RecordingSink()
        tee = TeeProgressSink([first, second])
        events = [_event(BATCH_BEGIN, cells=2), _event(LEASE, 0), _done(0)]
        for event in events:
            tee.emit(event)
        tee.close()
        for sink in (first, second):
            assert sink.events == events
            assert sink.closed == 1


class TestSalvageProgressJsonl:
    """Torn progress lines are normal operation, not corruption."""

    def _write(self, tmp_path, text):
        path = tmp_path / "progress.jsonl"
        path.write_text(text, encoding="utf-8")
        return path

    def _line(self, kind, cell, **extra):
        return (
            f'{{"kind": "{kind}", "source": "executor", "wall": 1.0, '
            f'"mono": 0.5, "cell": {cell}, "extra": {json.dumps(extra)}}}'
        )

    def test_clean_log_salvages_everything(self, tmp_path):
        path = self._write(
            tmp_path,
            self._line("lease", 0) + "\n"
            + self._line("complete", 0, winner=True, elapsed=0.5) + "\n",
        )
        events, skipped = load_span_logs([path])
        assert [e.kind for e in events] == ["lease", "complete"]
        assert skipped == 0

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        path = self._write(
            tmp_path,
            self._line("lease", 0) + "\n"
            + '{"kind": "compl',  # writer killed mid-line
        )
        events, skipped = load_span_logs([path])
        assert [e.cell for e in events] == [0]
        assert skipped == 1

    def test_interior_garbage_does_not_break_later_records(self, tmp_path):
        path = self._write(
            tmp_path,
            self._line("lease", 0) + "\n"
            "not json at all\n"
            "[1, 2, 3]\n"  # valid JSON but not a record object
            '{"kind": "lease", "cell": 1}\n'  # an object, but not a span
            + self._line("complete", 0) + "\n",
        )
        events, skipped = load_span_logs([path])
        assert [e.kind for e in events] == ["lease", "complete"]
        assert skipped == 3

    def test_strict_read_still_raises(self, tmp_path):
        path = self._write(tmp_path, '{"kind": "lease"\n')
        with pytest.raises(ConfigurationError, match="progress.jsonl:1"):
            read_jsonl(path, span_from_dict)

    def test_non_strict_read_delegates_to_salvage(self, tmp_path):
        path = self._write(
            tmp_path, self._line("lease", 4) + '\n{"torn'
        )
        events, damage = read_jsonl(path, span_from_dict, strict=False)
        assert [e.cell for e in events] == [4]
        assert len(damage) == 1

    def test_multiple_interleaved_tears_and_truncated_final(self, tmp_path):
        # A log stitched together from several partial captures of a
        # killed process: tears appear *between* good records repeatedly,
        # and the final record is cut mid-write.
        good = [
            '{"kind": "batch-begin", "source": "coordinator", "wall": 1.0,'
            ' "mono": 0.1, "extra": {"cells": 3}}',
            '{"kind": "worker-join", "source": "coordinator", "wall": 1.0,'
            ' "mono": 0.2, "worker": "w1", "extra": {"connected": 2}}',
            self._line("lease", 0),
            self._line("complete", 0, winner=True, elapsed=0.4),
            self._line("lease", 1),
        ]
        torn = [
            '{"kind": "compl',
            '{"kind": "lease", "ce',
            "",  # blank lines are ignored, not counted
        ]
        lines = [
            good[0], torn[0], good[1], torn[2], good[2], torn[1],
            good[3], good[4],
        ]
        truncated_final = '{"kind": "complete", "cell": 1, "elap'
        path = self._write(
            tmp_path, "\n".join(lines) + "\n" + truncated_final
        )
        events, skipped = load_span_logs([path])
        assert [e.kind for e in events] == [
            "batch-begin", "worker-join", "lease", "complete", "lease",
        ]
        assert skipped == 3  # two interior tears + the truncated final
