"""Streaming execution progress: a batch's cell lifecycle, as it happens.

A multi-hour ``repro grid`` or ``fig1..fig7`` regeneration is a batch of
independent simulation cells. A :class:`ProgressSink` receives the
batch's :class:`~repro.obs.spans.SpanEvent` records live — the same
vocabulary the dispatch coordinator writes to its span log and
:class:`~repro.obs.spans.FabricTimeline` reconstructs:

* ``batch-begin`` (``cells``, and ``workers`` for a local batch);
* one ``submit`` per cell, then one ``lease`` when the cell starts;
* ``complete`` when it finishes (``winner``, ``elapsed``);
* ``batch-end`` (``cells`` and ``wall_time``, or ``error``).

Under ``--backend remote`` the sink sees the coordinator's whole stream,
so heartbeats, expiries, re-leases and worker joins and leaves arrive
too. The :class:`~repro.experiments.executor.ParallelExecutor` stamps a
local batch's events in the parent process — inline on the serial path,
on one drain thread on the process-pool path — so they share a source
and a monotonic clock.

Events are pure observation: they carry wall-clock and monotonic stamps
and cell indices only, never touch the simulation RNG, and the executor
produces bit-identical results with any sink attached (the determinism
parity test in ``tests/integration/test_live_telemetry.py`` proves it).

Three sinks ship with the package:

* :class:`TerminalProgressRenderer` — a live single-line terminal view
  (completed/total, cells/s, ETA from observed cell times, busy workers);
* :class:`JsonlProgressSink` — the span events as a JSONL log, readable
  with :func:`~repro.obs.spans.load_span_logs` and ``repro fabric
  timeline``;
* :class:`TeeProgressSink` — fan-out to several sinks at once.

All sinks tolerate being reused across several batches (the figure
generators run one batch per plotted series): ``batch-begin`` resets
the per-batch state.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
import threading
import time
from typing import IO, Callable, Iterator, List, Optional, Sequence, Union

from .jsonl import JsonlWriter
from .spans import (
    BATCH_BEGIN,
    BATCH_END,
    COMPLETE,
    EXPIRE,
    LEASE,
    RELEASE,
    WORKER_JOIN,
    WORKER_LEAVE,
    SpanEvent,
    span_to_dict,
)

PathLike = Union[str, pathlib.Path]


class ProgressSink:
    """Receiver of a batch's span events; the default implementation drops all.

    :meth:`emit` is never called concurrently with itself: parallel and
    remote batches forward their events through one drain thread
    (:func:`drained`). :meth:`close` means no further batches will
    arrive.
    """

    def emit(self, event: SpanEvent) -> None:
        """One lifecycle event of the running batch."""

    def close(self) -> None:
        """Release resources; no further batches will be reported."""


@contextlib.contextmanager
def drained(queue, handle: Callable) -> Iterator:
    """Call ``handle(item)`` on one thread for each item put on ``queue``.

    Yields ``queue``. On exit the ``None`` sentinel is put last, so the
    thread handles everything put before it and then stops.
    """

    def drain() -> None:
        while True:
            item = queue.get()
            if item is None:
                return
            handle(item)

    thread = threading.Thread(target=drain, name="progress-drain", daemon=True)
    thread.start()
    try:
        yield queue
    finally:
        queue.put(None)
        thread.join()


class TeeProgressSink(ProgressSink):
    """Forward every event to each of several sinks, in order."""

    def __init__(self, sinks: Sequence[ProgressSink]):
        self.sinks: List[ProgressSink] = list(sinks)

    def emit(self, event: SpanEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlProgressSink(ProgressSink):
    """Write the span events to a JSONL file, one object per line.

    Each line is :func:`~repro.obs.spans.span_to_dict` of one event, so
    the log is a span log: :func:`~repro.obs.spans.load_span_logs` reads
    it back (skipping torn lines) and ``repro fabric timeline`` renders
    and reconciles it, for local and remote batches alike. The file is
    truncated on the first event and flushed after every line, so the
    log can be tailed while the batch runs and survives a killed process
    up to the last complete line. Several batches append several
    ``batch-begin``..``batch-end`` sections, each with its own ``run``.
    """

    def __init__(self, path: PathLike):
        self.path = pathlib.Path(path)
        self._log = JsonlWriter(self.path, append=False)

    def emit(self, event: SpanEvent) -> None:
        self._log.write(span_to_dict(event))

    def close(self) -> None:
        self._log.close()


class TerminalProgressRenderer(ProgressSink):
    """A live one-line terminal progress view (written to ``stream``).

    Renders ``completed/total``, percentage, observed throughput
    (cells/s), an ETA extrapolated from the mean observed cell time over
    the worker count, and which cells are currently running. Redraws are
    throttled to one per ``min_interval`` wall seconds (completions
    always redraw, so the count never lags).
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
        #: Live remote roster size (worker join/leave events); ``None``
        #: until the first worker joins. Under ``--backend remote`` the
        #: configured local worker count is meaningless — this is the
        #: number that is displayed and that drives the ETA.
        self.live_workers: Optional[int] = None
        self.finished = 0
        self.cell_times: List[float] = []
        self.running: dict = {}  # cell -> label (or "cell <i>")
        self._start = time.monotonic()
        self._last_draw = 0.0
        self._width = 0

    def emit(self, event: SpanEvent) -> None:
        kind, extra = event.kind, event.extra
        if kind == BATCH_BEGIN:
            self._reset(int(extra.get("cells", 0)), int(extra.get("workers", 0)))
            self._draw(force=True)
        elif kind in (WORKER_JOIN, WORKER_LEAVE):
            connected = extra.get("connected")
            if connected is not None:
                self.live_workers = connected
                self.workers = max(1, connected)
            self._draw(force=True)
        elif kind == LEASE:
            self.running[event.cell] = extra.get("label") or f"cell {event.cell}"
            self._draw()
        elif kind == COMPLETE and extra.get("winner"):
            self.running.pop(event.cell, None)
            self.finished += 1
            if extra.get("elapsed") is not None:
                self.cell_times.append(extra["elapsed"])
            self._draw(force=True)
        elif kind in (EXPIRE, RELEASE):
            # The lease is gone; a re-lease will add the cell back.
            self.running.pop(event.cell, None)
            self._draw(force=True)
        elif kind == BATCH_END:
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
