"""Causally-correlated cell-lifecycle spans for the dispatch fabric.

A distributed batch (``--backend remote``) scatters the life of one
experiment cell across processes and hosts: the coordinator *submits*
and *leases* it, a worker *executes* it, heartbeats keep the lease
alive, and a crash turns into an *expiry* followed by a *re-lease* to
another worker. This module gives every one of those transitions a
structured **span event** — JSONL, one object per line, stamped with
both wall-clock and monotonic time and correlated by
``(run, cell, attempt, worker)`` — plus the reconstructor that merges
coordinator and worker logs back into one per-cell timeline and
*reconciles* them: every completed cell has exactly one winning
attempt, every expiry is followed by a matching re-lease (or was
resolved by a completion), and attempt numbers are gapless.

Three deliberate design points:

* **Zero cost when disabled.** Nothing here is imported on the
  simulation hot path; dispatch call sites guard every emission with
  ``if spans is not None`` and no recorder exists unless an operator
  asked for one. Span events never touch simulation state, seeds or
  results — the dispatch layer's bit-identical-results guarantee holds
  with spans on or off (proven in ``tests/integration/test_fabric_obs.py``).
* **Two clocks per event.** ``wall`` (``time.time()``) is for humans
  and cross-host correlation; ``mono`` (``time.monotonic()``) is for
  arithmetic. All duration math in the reconstructor subtracts
  monotonic stamps *from the same source process only*, so an NTP step
  mid-run cannot produce negative queue times or phantom stragglers.
* **Crash forensics without the network.** A :class:`SpanRecorder` can
  keep its last-N events in a bounded ring buffer; a dying worker
  flushes the ring to ``crash-<worker>.jsonl`` on the way down, so the
  postmortem of a dead worker does not depend on it having streamed
  everything to the coordinator first.

A ``--progress-log`` holds the same events: the executor's local
batches emit ``batch-begin``, ``submit``, ``lease``, ``complete`` and
``batch-end`` under the source ``"executor"``, so the reconstructor
reads local and remote batches alike.

Span logs are written live by killable processes:
always read them with :func:`load_span_logs`, which skips and counts
torn lines (they are normal operation, not corruption).
"""

from __future__ import annotations

import pathlib
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ConfigurationError
from .jsonl import JsonlWriter, json_fields, read_jsonl, write_jsonl

PathLike = Union[str, pathlib.Path]

#: Coordinator-side span event kinds.
BATCH_BEGIN = "batch-begin"
BATCH_END = "batch-end"
SUBMIT = "submit"
LEASE = "lease"
HEARTBEAT = "heartbeat"
COMPLETE = "complete"
EXPIRE = "expire"
RELEASE = "release"
WORKER_JOIN = "worker-join"
WORKER_LEAVE = "worker-leave"

#: Worker-side span event kinds.
EXECUTE = "execute"
FINISH = "finish"
RESULT_SENT = "result-sent"
ERROR = "error"
SESSION = "session"
CRASH = "crash"

#: Default ring-buffer capacity of a worker's crash-forensics recorder.
DEFAULT_RING_SIZE = 512


@dataclass(frozen=True)
class SpanEvent:
    """One structured fabric event.

    ``source`` names the emitting process (``"coordinator"`` or a
    worker id); ``worker`` names the worker the event is *about* (for a
    coordinator-side ``lease``, the lease holder). ``wall`` is
    ``time.time()`` at emission, ``mono`` is ``time.monotonic()`` —
    monotonic stamps are only comparable between events of the same
    ``source``. ``extra`` carries kind-specific detail (labels, elapsed
    times, winner flags, remote timestamps).
    """

    kind: str
    source: str
    wall: float
    mono: float
    run: Optional[str] = None
    cell: Optional[int] = None
    attempt: Optional[int] = None
    worker: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def span_now(
    kind: str,
    source: str,
    *,
    run: Optional[str] = None,
    cell: Optional[int] = None,
    attempt: Optional[int] = None,
    worker: Optional[str] = None,
    **extra: Any,
) -> SpanEvent:
    """A span event of ``source``, stamped with both clocks now."""
    return SpanEvent(
        kind=kind,
        source=source,
        wall=time.time(),
        mono=time.monotonic(),
        run=run,
        cell=cell,
        attempt=attempt,
        worker=worker,
        extra=extra,
    )


def span_to_dict(event: SpanEvent) -> Dict[str, Any]:
    """The JSONL object for one span event (``None`` fields and an empty
    ``extra`` omitted)."""
    return {
        name: value
        for name, value in vars(event).items()
        if value is not None and value != {}
    }


def span_from_dict(data: Any) -> SpanEvent:
    """Rebuild a :class:`SpanEvent`; raises
    :class:`~repro.errors.ConfigurationError` on a malformed record."""
    return SpanEvent(**json_fields(SpanEvent, data, "span record", ConfigurationError))


class SpanRecorder:
    """Emit span events to a JSONL file and/or an in-memory ring buffer.

    Parameters
    ----------
    path:
        JSONL file to append events to (opened lazily, flushed per
        event so the log can be tailed and survives a kill up to the
        last complete line). ``None`` writes no file.
    source:
        Name stamped on every event (``"coordinator"`` or a worker id).
    ring_size:
        Keep the last N events in memory for :meth:`flush_ring` crash
        forensics; ``0`` keeps none.

    A recorder with neither a path nor a ring is never constructed by
    the dispatch layer — call sites guard with ``if spans is not None``
    so the disabled configuration pays nothing at all. :meth:`emit` is
    thread-safe (the coordinator emits from per-connection handler
    threads).
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        source: str,
        ring_size: int = 0,
    ):
        if ring_size < 0:
            raise ConfigurationError(
                f"ring_size must be >= 0, got {ring_size!r}"
            )
        self.path = pathlib.Path(path) if path is not None else None
        self.source = source
        self.ring: Optional[deque] = (
            deque(maxlen=ring_size) if ring_size > 0 else None
        )
        self._log = (
            JsonlWriter(self.path, append=True) if path is not None else None
        )
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether emitted events go anywhere at all."""
        return self.path is not None or self.ring is not None

    def emit(self, kind: str, **fields: Any) -> SpanEvent:
        """Record one event of this recorder's source, stamped now."""
        event = span_now(kind, self.source, **fields)
        self.record(event)
        return event

    def record(self, event: SpanEvent) -> None:
        """Append an already-stamped event to the ring and the log."""
        with self._lock:
            if self.ring is not None:
                self.ring.append(event)
            if self._log is not None:
                self._log.write(span_to_dict(event))

    def flush_ring(self, path: PathLike) -> Optional[pathlib.Path]:
        """Write the ring buffer to ``path`` as JSONL (crash forensics).

        Returns the path written, or ``None`` when there is no ring (or
        it is empty). Safe to call from a signal handler or an
        ``except`` block on the way down; events stay in the ring, so a
        second flush (e.g. SIGTERM racing an excepthook) rewrites the
        same content instead of losing it.
        """
        with self._lock:
            if self.ring is None or not self.ring:
                return None
            events = list(self.ring)
        return write_jsonl(path, map(span_to_dict, events))

    def close(self) -> None:
        """Close the JSONL stream (the ring stays readable)."""
        with self._lock:
            if self._log is not None:
                self._log.close()

    def __repr__(self) -> str:
        ring = len(self.ring) if self.ring is not None else 0
        return (
            f"<SpanRecorder source={self.source!r} path={self.path} "
            f"ring={ring}>"
        )


def crash_file_name(worker_id: str) -> str:
    """``crash-<worker>.jsonl`` with filesystem-hostile characters mapped.

    Worker ids default to ``host:pid``; the colon (and anything else
    outside ``[A-Za-z0-9._-]``) becomes ``-`` so the name is portable.
    """
    safe = re.sub(r"[^A-Za-z0-9._-]", "-", worker_id)
    return f"crash-{safe}.jsonl"


# -- reading span logs back ---------------------------------------------------


def load_span_logs(paths: Iterable[PathLike]) -> Tuple[List[SpanEvent], int]:
    """Salvage-read and concatenate several span logs.

    Returns ``(events, skipped)``: every well-formed span event, in file
    order, and the number of damaged lines skipped. The natural input
    of the reconstructor: the coordinator's log plus any worker logs
    and ``crash-*.jsonl`` ring flushes that survived.
    Event order across files does not matter — the reconstructor keys
    everything by ``(run, cell, attempt)`` and compares monotonic
    stamps per source only.
    """
    events: List[SpanEvent] = []
    skipped = 0
    for path in paths:
        part, damage = read_jsonl(path, span_from_dict, strict=False)
        events.extend(part)
        skipped += len(damage)
    return events, skipped


# -- reconstruction -----------------------------------------------------------


@dataclass
class AttemptRecord:
    """One lease of one cell: who held it and how it ended."""

    cell: int
    attempt: int
    worker: Optional[str] = None
    leased: Optional[SpanEvent] = None
    executed: Optional[SpanEvent] = None
    finished: Optional[SpanEvent] = None
    completed: Optional[SpanEvent] = None
    expired: Optional[SpanEvent] = None
    released: Optional[SpanEvent] = None
    errored: Optional[SpanEvent] = None
    heartbeats: int = 0

    @property
    def winner(self) -> bool:
        """Whether this attempt's completion was the cell's first."""
        return (
            self.completed is not None
            and bool(self.completed.extra.get("winner"))
        )

    @property
    def execute_seconds(self) -> Optional[float]:
        """Worker-measured execution time (worker monotonic clock)."""
        if self.finished is not None:
            elapsed = self.finished.extra.get("elapsed")
            if elapsed is not None:
                return float(elapsed)
        if self.executed is not None and self.finished is not None:
            return self.finished.mono - self.executed.mono
        return None

    @property
    def remote_seconds(self) -> Optional[float]:
        """Lease-to-outcome time as the coordinator saw it."""
        terminal = self.completed or self.expired or self.released
        if self.leased is None or terminal is None:
            return None
        return terminal.mono - self.leased.mono


@dataclass
class CellTimeline:
    """Every attempt of one cell, plus its submission event."""

    cell: int
    submitted: Optional[SpanEvent] = None
    attempts: Dict[int, AttemptRecord] = field(default_factory=dict)

    @property
    def label(self) -> Optional[str]:
        if self.submitted is not None:
            return self.submitted.extra.get("label")
        return None

    def attempt(self, number: int, worker: Optional[str] = None) -> AttemptRecord:
        """The attempt record for ``number``, created on first sight."""
        record = self.attempts.get(number)
        if record is None:
            record = AttemptRecord(cell=self.cell, attempt=number, worker=worker)
            self.attempts[number] = record
        if record.worker is None and worker is not None:
            record.worker = worker
        return record

    def winning_attempt(self) -> Optional[AttemptRecord]:
        """The attempt whose completion won (first), if reconstructable."""
        for record in sorted(self.attempts.values(), key=lambda a: a.attempt):
            if record.winner:
                return record
        return None

    def phases(self) -> Optional[Dict[str, float]]:
        """Wall-time decomposition of the winning attempt, in seconds.

        ``queue``: submission to winning lease (coordinator clock);
        ``execute``: the simulation itself (worker clock when worker
        events are available, otherwise folded into ``stream``);
        ``stream``: everything else between lease grant and the
        coordinator recording the result — lease delivery, result
        serialization, the TCP hop; ``total``: submission to recorded
        completion. All differences are same-source monotonic.
        """
        winner = self.winning_attempt()
        if (
            winner is None
            or winner.leased is None
            or winner.completed is None
            or self.submitted is None
        ):
            return None
        queue = winner.leased.mono - self.submitted.mono
        remote = winner.completed.mono - winner.leased.mono
        execute = winner.execute_seconds
        if execute is None or execute > remote:
            execute = remote
        return {
            "queue": max(0.0, queue),
            "execute": max(0.0, execute),
            "stream": max(0.0, remote - execute),
            "total": max(0.0, winner.completed.mono - self.submitted.mono),
        }


@dataclass
class Reconciliation:
    """Outcome of cross-checking a reconstructed fabric timeline."""

    cells: int
    attempts: int
    releases: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"reconciliation: {status} ({self.cells} cells, "
            f"{self.attempts} attempts, {self.releases} re-lease(s))"
        )


class FabricTimeline:
    """Per-cell timelines of one dispatched batch, rebuilt from spans."""

    def __init__(self, run: Optional[str] = None):
        self.run = run
        self.cells: Dict[int, CellTimeline] = {}
        self.batch_begin: Optional[SpanEvent] = None
        self.batch_end: Optional[SpanEvent] = None
        self.workers: Dict[str, Dict[str, Any]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def runs(cls, events: Sequence[SpanEvent]) -> List[str]:
        """Run ids seen in ``events``, in first-appearance order."""
        seen: List[str] = []
        for event in events:
            if event.run is not None and event.run not in seen:
                seen.append(event.run)
        return seen

    @classmethod
    def from_events(
        cls, events: Sequence[SpanEvent], run: Optional[str] = None
    ) -> "FabricTimeline":
        """Reconstruct one run's timeline from merged span events.

        ``run=None`` picks the *last* run that appears (multi-batch
        commands append several runs to one coordinator log; the last
        is usually the one being debugged). Events without a run id —
        worker session chatter — are ignored.
        """
        if run is None:
            known = cls.runs(events)
            run = known[-1] if known else None
        timeline = cls(run)
        for event in events:
            if event.run != run or event.run is None:
                continue
            timeline._absorb(event)
        return timeline

    def _absorb(self, event: SpanEvent) -> None:
        kind = event.kind
        if kind == BATCH_BEGIN:
            self.batch_begin = event
            return
        if kind == BATCH_END:
            self.batch_end = event
            return
        if kind in (WORKER_JOIN, WORKER_LEAVE):
            if event.worker is not None:
                entry = self.workers.setdefault(event.worker, {})
                entry["left" if kind == WORKER_LEAVE else "joined"] = event
            return
        if event.cell is None:
            return
        cell = self.cells.setdefault(event.cell, CellTimeline(event.cell))
        if kind == SUBMIT:
            cell.submitted = event
            return
        attempt = cell.attempt(
            event.attempt if event.attempt is not None else 0, event.worker
        )
        if event.worker is not None:
            self.workers.setdefault(event.worker, {})
        if kind == LEASE:
            attempt.leased = event
        elif kind == HEARTBEAT:
            attempt.heartbeats += 1
        elif kind == COMPLETE:
            attempt.completed = event
        elif kind == EXPIRE:
            attempt.expired = event
        elif kind == RELEASE:
            attempt.released = event
        elif kind == EXECUTE:
            attempt.executed = event
        elif kind == FINISH:
            attempt.finished = event
        elif kind == RESULT_SENT:
            if attempt.finished is None:
                attempt.finished = event
        elif kind == ERROR:
            attempt.errored = event

    # -- queries -------------------------------------------------------------

    @property
    def attempt_count(self) -> int:
        return sum(len(cell.attempts) for cell in self.cells.values())

    @property
    def release_count(self) -> int:
        """Attempts that ended in an expiry or a dead-worker release."""
        return sum(
            1
            for cell in self.cells.values()
            for attempt in cell.attempts.values()
            if attempt.expired is not None or attempt.released is not None
        )

    def wall_seconds(self) -> Optional[float]:
        """Batch duration on the coordinator's monotonic clock."""
        if self.batch_begin is None or self.batch_end is None:
            return None
        return self.batch_end.mono - self.batch_begin.mono

    def worker_lanes(self) -> Dict[str, List[AttemptRecord]]:
        """Attempts grouped per worker, ordered by lease time."""
        lanes: Dict[str, List[AttemptRecord]] = {}
        for cell in self.cells.values():
            for attempt in cell.attempts.values():
                if attempt.worker is None:
                    continue
                lanes.setdefault(attempt.worker, []).append(attempt)
        for attempts in lanes.values():
            attempts.sort(
                key=lambda a: a.leased.mono if a.leased is not None else -1.0
            )
        return lanes

    # -- reconciliation ------------------------------------------------------

    def reconcile(self) -> Reconciliation:
        """Cross-check the timeline's causal invariants.

        * the batch declares N cells and all N (exactly) appear;
        * every cell was submitted, attempted, and completed by
          **exactly one** winning attempt (no orphan winners, no
          double-counts);
        * attempt numbers are gapless from 0 — a re-lease is attempt
          k+1 of the same cell, so a gap means a lost lease record;
        * every expiry/release is *matched*: a later re-lease exists,
          or the cell's winning completion resolved it (a completion
          racing the expiry sweep legitimately swallows the re-lease);
        * a non-winning attempt without an expiry, release, or
          duplicate completion is only legal when the cell was won by
          another attempt (its lease was superseded by that
          completion).
        """
        report = Reconciliation(
            cells=len(self.cells),
            attempts=self.attempt_count,
            releases=self.release_count,
        )
        problems = report.problems
        declared = (
            self.batch_begin.extra.get("cells")
            if self.batch_begin is not None
            else None
        )
        if declared is not None:
            expected = set(range(int(declared)))
            missing = expected - set(self.cells)
            unexpected = set(self.cells) - expected
            if missing:
                problems.append(f"cells never seen: {sorted(missing)}")
            if unexpected:
                problems.append(
                    f"cells outside the declared batch: {sorted(unexpected)}"
                )
        for index in sorted(self.cells):
            cell = self.cells[index]
            if cell.submitted is None:
                problems.append(f"cell {index}: no submit event")
            if not cell.attempts:
                problems.append(f"cell {index}: never attempted")
                continue
            numbers = sorted(cell.attempts)
            if numbers != list(range(len(numbers))):
                problems.append(
                    f"cell {index}: attempt numbers {numbers} are not "
                    f"gapless from 0"
                )
            winners = [
                a for a in cell.attempts.values() if a.winner
            ]
            if len(winners) != 1:
                problems.append(
                    f"cell {index}: {len(winners)} winning attempts "
                    f"(expected exactly 1)"
                )
            winner = winners[0] if len(winners) == 1 else None
            for attempt in cell.attempts.values():
                ended = attempt.expired or attempt.released
                if ended is not None and not attempt.winner:
                    released_later = any(
                        other > attempt.attempt for other in cell.attempts
                    )
                    if not released_later and winner is None:
                        problems.append(
                            f"cell {index} attempt {attempt.attempt}: "
                            f"expired/released but never re-leased or "
                            f"completed"
                        )
                if (
                    ended is None
                    and attempt.completed is None
                    and winner is None
                ):
                    problems.append(
                        f"cell {index} attempt {attempt.attempt}: no "
                        f"terminal event (still leased?)"
                    )
                if (
                    attempt.leased is not None
                    and attempt.executed is not None
                    and attempt.executed.source != attempt.leased.worker
                ):
                    problems.append(
                        f"cell {index} attempt {attempt.attempt}: executed "
                        f"by {attempt.executed.source!r} but leased to "
                        f"{attempt.leased.worker!r}"
                    )
        return report

    def __repr__(self) -> str:
        return (
            f"<FabricTimeline run={self.run!r} cells={len(self.cells)} "
            f"attempts={self.attempt_count}>"
        )


# -- rendering ----------------------------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    return f"{value:.2f}s" if value is not None else "?"


def render_fabric_timeline(
    timeline: FabricTimeline,
    reconciliation: Optional[Reconciliation] = None,
    *,
    stragglers: int = 5,
) -> str:
    """A post-hoc text report of one dispatched batch.

    Sections: headline (run, cells, workers, wall time), the
    reconciliation verdict, aggregate phase decomposition
    (queue/execute/stream over winning attempts), per-worker lanes
    (cells served, busy time, share of the batch wall), re-lease
    annotations, and the slowest cells with their phase split.
    """
    if reconciliation is None:
        reconciliation = timeline.reconcile()
    lines: List[str] = []
    wall = timeline.wall_seconds()
    lines.append(
        f"fabric run {timeline.run or '?'}: {len(timeline.cells)} cells, "
        f"{len(timeline.workers)} worker(s), wall {_fmt_seconds(wall)}"
    )
    lines.append(str(reconciliation))
    for problem in reconciliation.problems:
        lines.append(f"  ! {problem}")

    phased = [
        (index, cell.phases())
        for index, cell in sorted(timeline.cells.items())
    ]
    phased = [(index, p) for index, p in phased if p is not None]
    if phased:
        totals = {key: 0.0 for key in ("queue", "execute", "stream", "total")}
        for _, p in phased:
            for key in totals:
                totals[key] += p[key]
        denominator = totals["total"] or 1.0
        lines.append(
            "phase totals (winning attempts): "
            + " | ".join(
                f"{key} {totals[key]:.2f}s "
                f"({100.0 * totals[key] / denominator:.0f}%)"
                for key in ("queue", "execute", "stream")
            )
        )

    lanes = timeline.worker_lanes()
    if lanes:
        lines.append("per-worker lanes:")
        for worker in sorted(lanes):
            attempts = lanes[worker]
            won = [a for a in attempts if a.winner]
            busy = sum(
                a.remote_seconds or 0.0 for a in attempts
            )
            share = (
                f", {100.0 * busy / wall:.0f}% of batch wall"
                if wall else ""
            )
            cells = ", ".join(
                f"{a.cell}" + (f"(a{a.attempt})" if a.attempt else "")
                for a in attempts
            )
            died = (
                "left" in timeline.workers.get(worker, {})
                and any(a.released is not None for a in attempts)
            )
            note = "  [connection died holding leases]" if died else ""
            lines.append(
                f"  {worker}: {len(won)}/{len(attempts)} attempts won, "
                f"busy {busy:.2f}s{share}  cells: {cells or '-'}{note}"
            )

    releases = [
        (cell.cell, attempt)
        for cell in timeline.cells.values()
        for attempt in sorted(cell.attempts.values(), key=lambda a: a.attempt)
        if attempt.expired is not None or attempt.released is not None
    ]
    if releases:
        lines.append("re-leases:")
        for index, attempt in releases:
            how = "expired" if attempt.expired is not None else "released"
            succ = timeline.cells[index].attempts.get(attempt.attempt + 1)
            if succ is not None:
                resolution = (
                    f"-> attempt {succ.attempt} ({succ.worker or '?'}"
                    f"{', won' if succ.winner else ''})"
                )
            else:
                resolution = "-> resolved by a racing completion"
            lines.append(
                f"  cell {index}: attempt {attempt.attempt} "
                f"({attempt.worker or '?'}) {how} {resolution}"
            )

    if phased:
        slowest = sorted(phased, key=lambda item: -item[1]["total"])
        lines.append(f"stragglers (slowest {min(stragglers, len(slowest))}):")
        for index, p in slowest[:stragglers]:
            label = timeline.cells[index].label
            name = f"cell {index}" + (f" ({label})" if label else "")
            lines.append(
                f"  {name}: total {p['total']:.2f}s = queue {p['queue']:.2f}s "
                f"+ execute {p['execute']:.2f}s + stream {p['stream']:.2f}s"
            )
    return "\n".join(lines)
