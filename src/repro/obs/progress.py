"""Streaming execution progress: heartbeats from running experiment cells.

A multi-hour ``repro grid`` or ``fig1..fig7`` regeneration is a batch of
independent simulation cells; until this module existed the batch was a
black box until the last cell returned. A :class:`ProgressSink` receives
one ``started`` and one ``finished`` :class:`ProgressEvent` per cell —
emitted from inside the worker process, over a ``multiprocessing`` queue
when the :class:`~repro.experiments.executor.ParallelExecutor` fans out,
or via a direct call on the serial path — plus ``begin``/``finish``
bracketing for the whole batch.

Heartbeats are pure observation: they carry wall-clock timestamps and
cell indices only, never touch the simulation RNG, and the executor
produces bit-identical results with any sink attached (the determinism
parity test in ``tests/integration/test_live_telemetry.py`` proves it).

Three sinks ship with the package:

* :class:`TerminalProgressRenderer` — a live single-line terminal view
  (completed/total, cells/s, ETA from observed cell times, busy workers);
* :class:`JsonlProgressSink` — a machine-readable JSONL event log
  (``begin`` / ``started`` / ``finished`` / ``end`` records);
* :class:`TeeProgressSink` — fan-out to several sinks at once.

All sinks tolerate being reused across several batches (the figure
generators run one batch per plotted series): ``begin`` resets the
per-batch state.
"""

from __future__ import annotations

import pathlib
import sys
import time
from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Union

from .jsonl import JsonlWriter

PathLike = Union[str, pathlib.Path]

#: Event kinds a cell can emit.
STARTED = "started"
FINISHED = "finished"

#: Batch-level event kind: the live worker roster changed (a remote
#: dispatch worker joined or left). ``index`` is -1 (no cell);
#: ``workers`` carries the new roster size.
ROSTER = "roster"


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat from one experiment cell (or the batch itself).

    ``kind`` is :data:`STARTED`, :data:`FINISHED` or :data:`ROSTER`;
    ``index`` is the cell's position in submission order (-1 for
    batch-level :data:`ROSTER` events); ``label`` names the cell when
    the caller supplied labels (``policy=RR,heterogeneity=20`` style);
    ``worker`` is the emitting process id; ``elapsed`` is the cell's
    wall time (``finished`` events only); ``timestamp`` is the
    wall-clock ``time.time()`` at emission; ``workers`` is the live
    worker-roster size (``roster`` events only).
    """

    kind: str
    index: int
    label: Optional[str] = None
    worker: Optional[int] = None
    elapsed: Optional[float] = None
    timestamp: float = 0.0
    workers: Optional[int] = None


class ProgressSink:
    """Receiver of batch progress; the default implementation drops all.

    Subclasses override any of :meth:`begin` (batch starts: total cell
    count and worker count), :meth:`emit` (one :class:`ProgressEvent`),
    :meth:`finish` (batch done; ``stats`` is the batch's
    ``ExecutionStats``, or ``None`` when the batch raised) and
    :meth:`close` (no further batches will arrive). During a parallel
    batch :meth:`emit` is called from the executor's drain thread, never
    concurrently with itself.
    """

    def begin(self, total: int, workers: int) -> None:
        """A batch of ``total`` cells starts on ``workers`` workers."""

    def emit(self, event: ProgressEvent) -> None:
        """One cell heartbeat."""

    def finish(self, stats=None) -> None:
        """The batch completed (``stats=None`` means it raised)."""

    def close(self) -> None:
        """Release resources; no further batches will be reported."""


class TeeProgressSink(ProgressSink):
    """Forward every callback to each of several sinks, in order."""

    def __init__(self, sinks: Sequence[ProgressSink]):
        self.sinks: List[ProgressSink] = list(sinks)

    def begin(self, total: int, workers: int) -> None:
        for sink in self.sinks:
            sink.begin(total, workers)

    def emit(self, event: ProgressEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def finish(self, stats=None) -> None:
        for sink in self.sinks:
            sink.finish(stats)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlProgressSink(ProgressSink):
    """Append progress events to a JSONL file, one object per line.

    Schema (all records carry ``t``, the wall-clock emission time)::

        {"event": "begin", "total": 8, "workers": 4, "t": ...}
        {"event": "started", "cell": 0, "label": "...", "worker": 123, "t": ...}
        {"event": "finished", "cell": 0, "label": "...", "worker": 123,
         "elapsed": 0.51, "t": ...}
        {"event": "roster", "workers": 2, "t": ...}      # remote backend
        {"event": "end", "cells": 8, "wall_time": 2.97, "t": ...}

    The stream is flushed after every record so the log can be tailed
    while the batch runs and survives a killed process up to the last
    completed heartbeat. Several batches simply append several
    ``begin``..``end`` sections. Read a log back with
    :func:`repro.obs.jsonl.read_jsonl` (``strict=False`` for a log that
    is still being written or whose writer was killed).
    """

    def __init__(self, path: PathLike):
        self.path = pathlib.Path(path)
        self._log = JsonlWriter(self.path, append=False)

    def begin(self, total: int, workers: int) -> None:
        self._log.write(
            {"event": "begin", "total": total, "workers": workers,
             "t": time.time()}
        )

    def emit(self, event: ProgressEvent) -> None:
        if event.kind == ROSTER:
            self._log.write({
                "event": ROSTER,
                "workers": event.workers,
                "t": event.timestamp or time.time(),
            })
            return
        record = {
            "event": event.kind,
            "cell": event.index,
            "label": event.label,
            "worker": event.worker,
            "t": event.timestamp or time.time(),
        }
        if event.elapsed is not None:
            record["elapsed"] = event.elapsed
        self._log.write(record)

    def finish(self, stats=None) -> None:
        record = {"event": "end", "t": time.time()}
        if stats is not None:
            record["cells"] = stats.cell_count
            record["wall_time"] = stats.wall_time
        else:
            record["error"] = True
        self._log.write(record)

    def close(self) -> None:
        self._log.close()


class TerminalProgressRenderer(ProgressSink):
    """A live one-line terminal progress view (written to ``stream``).

    Renders ``completed/total``, percentage, observed throughput
    (cells/s), an ETA extrapolated from the mean observed cell time over
    the configured worker count, and which cells are currently running.
    Redraws are throttled to one per ``min_interval`` wall seconds
    (``finished`` events always redraw, so the count never lags).
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        min_interval: float = 0.1,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = float(min_interval)
        self._reset(0, 1)

    def _reset(self, total: int, workers: int) -> None:
        self.total = total
        self.workers = max(1, workers)
        #: Live remote roster size (``roster`` events); ``None`` until
        #: the first worker joins. Under ``--backend remote`` the
        #: configured local worker count is meaningless — this is the
        #: number that is displayed and that drives the ETA.
        self.live_workers: Optional[int] = None
        self.finished = 0
        self.cell_times: List[float] = []
        self.running: dict = {}  # index -> label (or "cell <i>")
        self._start = time.monotonic()
        self._last_draw = 0.0
        self._width = 0

    def begin(self, total: int, workers: int) -> None:
        self._reset(total, workers)
        self._draw(force=True)

    def emit(self, event: ProgressEvent) -> None:
        if event.kind == ROSTER:
            if event.workers is not None:
                self.live_workers = event.workers
                self.workers = max(1, event.workers)
            self._draw(force=True)
            return
        label = event.label or f"cell {event.index}"
        if event.kind == STARTED:
            self.running[event.index] = label
            self._draw()
        elif event.kind == FINISHED:
            self.running.pop(event.index, None)
            self.finished += 1
            if event.elapsed is not None:
                self.cell_times.append(event.elapsed)
            self._draw(force=True)

    def finish(self, stats=None) -> None:
        self._draw(force=True)
        self.stream.write("\n")
        self.stream.flush()

    # -- rendering ----------------------------------------------------------

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall seconds, from observed mean cell time."""
        if not self.cell_times or self.total <= 0:
            return None
        remaining = self.total - self.finished
        if remaining <= 0:
            return 0.0
        mean = sum(self.cell_times) / len(self.cell_times)
        return remaining * mean / self.workers

    def status_line(self) -> str:
        """The current one-line rendering (also used by tests)."""
        elapsed = max(time.monotonic() - self._start, 1e-9)
        parts = [f"cells {self.finished}/{self.total}"]
        if self.total:
            parts.append(f"{100.0 * self.finished / self.total:5.1f}%")
        parts.append(f"{self.finished / elapsed:.2f} cells/s")
        eta = self.eta_seconds()
        parts.append(f"ETA {eta:.1f}s" if eta is not None else "ETA --")
        if self.live_workers is not None:
            parts.append(f"workers {self.live_workers}")
        if self.running:
            busy = ", ".join(
                label for _, label in sorted(self.running.items())[:4]
            )
            if len(self.running) > 4:
                busy += f", +{len(self.running) - 4} more"
            parts.append(f"busy {len(self.running)}: {busy}")
        return "[progress] " + "  ".join(parts)

    def _draw(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        line = self.status_line()
        # Pad with spaces so a shorter line fully overwrites a longer one.
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
