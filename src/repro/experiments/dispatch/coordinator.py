"""The dispatch coordinator: leases cells to workers, reassembles results.

One :class:`Coordinator` drives one batch of cells over an already-bound
listening socket (the :class:`~repro.experiments.dispatch.backend.RemoteBackend`
owns the socket so it survives across batches — figure generators run
several batches back-to-back and workers reconnect between them).

Threading model, mirroring the process-pool executor's:

* an accept thread admits workers and spawns one handler thread per
  connection;
* handler threads speak the :mod:`~repro.experiments.dispatch.protocol`
  message loop, mutating the shared :class:`~.leases.LeaseTable` only
  under the coordinator lock;
* every span event is built once, by :meth:`Coordinator._span`, and
  goes to the span recorder and — with a
  :class:`~repro.obs.progress.ProgressSink` attached — onto a queue one
  drain thread forwards to the sink, so, exactly as with the local
  backend, the sink never sees concurrent ``emit`` calls;
* each connection reads with a timeout of the lease timeout, so a peer
  that stalls mid-frame is dropped (and its leases re-pooled) instead of
  pinning a handler thread past the end of the batch;
* the caller's thread sits in :meth:`run`, sweeping expired leases every
  quarter second until every cell has a result.

Determinism: results are recorded per submission index and returned in
submission order, each cell's seed was fixed before dispatch, and a
re-leased cell's retry is idempotent — so the reassembled batch is
bit-identical to ``workers=1`` no matter how many workers served it, in
which order leases returned, or which workers died along the way.
Duplicate completions (a stalled worker finishing a cell that was
re-leased and already completed elsewhere) are dropped: the first
completion wins, in results, winning span events and timing alike.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...errors import DispatchError
from ...obs import spans as span_kinds
from ...obs.progress import ProgressSink, drained
from ...obs.spans import SpanRecorder, span_now
from .leases import LeaseTable
from .protocol import (
    ERROR,
    HEARTBEAT,
    HELLO,
    LEASE,
    PROTOCOL_VERSION,
    REQUEST,
    RESULT,
    SHUTDOWN,
    WAIT,
    format_address,
    recv_message,
    result_from_wire,
    send_message,
)

#: How long an idle worker is told to sleep before re-requesting work.
WAIT_DELAY = 0.2

#: Cadence of the coordinator's lease-expiry sweep (wall seconds).
SWEEP_INTERVAL = 0.25

#: ``source`` of the coordinator's span events.
COORDINATOR = "coordinator"


@dataclass
class DispatchOutcome:
    """Everything one coordinated batch produced."""

    #: Cell results in submission order.
    results: List[Any]
    #: ``(index, elapsed, worker)`` triples in completion order, first
    #: completion per cell only — feed to
    #: :meth:`~repro.experiments.executor.ExecutionStats.from_completions`.
    completions: List[Tuple[int, float, str]]
    #: Wall-clock seconds for the whole batch.
    wall_time: float
    #: Every worker that connected: id -> {"worker", "host", "pid", "cells"}.
    roster: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Cells that needed a re-lease (index -> retry count).
    retried: Dict[str, int] = field(default_factory=dict)

    def roster_list(self) -> List[Dict[str, Any]]:
        """Roster entries sorted by worker id (manifest-stable order)."""
        return [self.roster[key] for key in sorted(self.roster)]


class Coordinator:
    """Serve one batch of cell tasks to however many workers connect.

    Parameters
    ----------
    tasks:
        JSON-safe cell task payloads, one per cell, in submission order.
    labels:
        Optional per-cell labels, carried on span events.
    listener:
        A bound, listening TCP socket (ownership stays with the caller).
    lease_timeout:
        Seconds a lease may go without a heartbeat before the cell is
        returned to the pool.
    sink:
        Optional :class:`~repro.obs.progress.ProgressSink` receiving
        every span event of the batch live, from one drain thread.
    timeout:
        Optional overall wall-clock deadline for the batch; expiry
        raises :class:`~repro.errors.DispatchError` naming the missing
        cells (``None`` waits indefinitely — workers may join late).
    spans:
        Optional :class:`~repro.obs.spans.SpanRecorder` receiving
        cell-lifecycle span events (submit, lease, heartbeat, complete,
        expire, release, worker join/leave). ``None`` (the default)
        with no ``sink`` either builds no event at all.
    run_id:
        Correlation id stamped on span events and leases of this batch
        (observability only; never touches results).
    """

    def __init__(
        self,
        tasks: Sequence[Dict[str, Any]],
        labels: Optional[Sequence[Optional[str]]] = None,
        *,
        listener: socket.socket,
        lease_timeout: float = 30.0,
        sink: Optional[ProgressSink] = None,
        timeout: Optional[float] = None,
        spans: Optional[SpanRecorder] = None,
        run_id: Optional[str] = None,
    ):
        self.tasks = list(tasks)
        self.labels = list(labels) if labels is not None else None
        self.listener = listener
        self.lease_timeout = float(lease_timeout)
        self.sink = sink
        self.timeout = timeout
        self.spans = spans
        self.run_id = run_id
        self.table = LeaseTable(len(self.tasks), self.lease_timeout)
        self.roster: Dict[str, Dict[str, Any]] = {}
        #: Worker ids with a live connection right now (id -> count of
        #: open connections, normally 1) — the live roster the worker
        #: join/leave span events and the coordinator metrics report.
        self.connected: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._stop = False
        self._failure: Optional[DispatchError] = None
        self._connections: List[socket.socket] = []
        self._handlers: List[threading.Thread] = []
        self._sink_queue: Optional["queue.Queue"] = None

    # -- public API ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The listener's bound ``(host, port)``."""
        return self.listener.getsockname()[:2]

    def _label(self, index: int) -> Optional[str]:
        return self.labels[index] if self.labels is not None else None

    def _span(self, kind: str, **fields: Any) -> None:
        """Build one span event; hand it to the recorder and the sink.

        Without either, no event is built at all.
        """
        if self.spans is None and self._sink_queue is None:
            return
        event = span_now(kind, COORDINATOR, run=self.run_id, **fields)
        if self.spans is not None:
            self.spans.record(event)
        if self._sink_queue is not None:
            self._sink_queue.put(event)

    def run(self) -> DispatchOutcome:
        """Block until every cell completed; return the batch outcome."""
        if self.sink is None:
            return self._run()
        with drained(queue.Queue(), self.sink.emit) as self._sink_queue:
            return self._run()

    def _run(self) -> DispatchOutcome:
        start = time.perf_counter()
        cells = len(self.tasks)
        self._span(span_kinds.BATCH_BEGIN, cells=cells)
        for index in range(cells):
            self._span(span_kinds.SUBMIT, cell=index, label=self._label(index))
        try:
            outcome = (
                self._serve(start) if self.tasks
                else DispatchOutcome(results=[], completions=[], wall_time=0.0)
            )
        except BaseException:
            self._span(span_kinds.BATCH_END, cells=cells, error=True)
            raise
        self._span(
            span_kinds.BATCH_END,
            cells=cells,
            wall_time=outcome.wall_time,
            retries=sum(self.table.retried.values()),
        )
        return outcome

    def _serve(self, start: float) -> DispatchOutcome:
        """Lease cells until all completed, the batch failed or timed out."""
        deadline = None if self.timeout is None else start + self.timeout
        accept_thread = threading.Thread(
            target=self._accept_loop, name="dispatch-accept", daemon=True
        )
        accept_thread.start()
        try:
            while True:
                if self._done.wait(SWEEP_INTERVAL):
                    break
                with self._lock:
                    expired = self.table.expire_details()
                for index, holder, attempt in expired:
                    self._span(
                        span_kinds.EXPIRE,
                        cell=index, attempt=attempt, worker=holder,
                    )
                if deadline is not None and time.perf_counter() > deadline:
                    with self._lock:
                        missing = self.table.cell_count - self.table.completed_count
                        self._failure = self._failure or DispatchError(
                            f"dispatch timed out after {self.timeout:g}s with "
                            f"{missing} of {self.table.cell_count} cells "
                            f"incomplete ({len(self.roster)} workers seen)"
                        )
                        self._done.set()
                    break
        finally:
            self._shutdown()
            accept_thread.join(timeout=2.0)
        if self._failure is not None:
            raise self._failure
        with self._lock:
            results = [
                result_from_wire(payload)
                for payload in self.table.results_in_order()
            ]
            completions = list(self.table.completions)
            retried = {
                str(index): count
                for index, count in sorted(self.table.retried.items())
            }
        return DispatchOutcome(
            results=results,
            completions=completions,
            wall_time=time.perf_counter() - start,
            roster=dict(self.roster),
            retried=retried,
        )

    # -- socket plumbing -----------------------------------------------------

    def _accept_loop(self) -> None:
        self.listener.settimeout(SWEEP_INTERVAL)
        while not self._stop:
            try:
                connection, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us
            # A live worker speaks at least every WAIT_DELAY (idle) or
            # lease_timeout/3 (heartbeats); a peer silent for longer
            # has stalled, and its reads must not block forever.
            connection.settimeout(max(self.lease_timeout, 2 * WAIT_DELAY))
            try:
                # Leases and results are small framed messages; never let
                # Nagle hold one back waiting for a delayed ACK.
                connection.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                pass
            handler = threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name="dispatch-worker-conn",
                daemon=True,
            )
            with self._lock:
                if self._stop:
                    # The batch ended while this agent connected.
                    connection.close()
                    return
                # Started before it is published: _shutdown joins only
                # the handlers it finds, and joining an unstarted
                # thread raises.
                handler.start()
                self._connections.append(connection)
                self._handlers.append(handler)

    def _shutdown(self) -> None:
        """End the batch: tell every worker goodbye and drop the conns."""
        with self._lock:
            self._stop = True
            connections = list(self._connections)
            handlers = list(self._handlers)
        for connection in connections:
            try:
                send_message(connection, {"type": SHUTDOWN})
            except OSError:
                pass
            try:
                # Wakes a handler blocked in recv on this connection.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for handler in handlers:
            handler.join(timeout=1.0)

    # -- per-connection message loop -----------------------------------------

    def _serve_connection(self, connection: socket.socket) -> None:
        worker_id = None
        try:
            hello = recv_message(connection)
            if hello is None or hello.get("type") != HELLO:
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                send_message(connection, {"type": SHUTDOWN})
                return
            worker_id = str(
                hello.get("worker")
                or f"{hello.get('host', '?')}:{hello.get('pid', '?')}"
            )
            with self._lock:
                self.roster.setdefault(
                    worker_id,
                    {
                        "worker": worker_id,
                        "host": hello.get("host"),
                        "pid": hello.get("pid"),
                        "cells": 0,
                    },
                )
                self.connected[worker_id] = (
                    self.connected.get(worker_id, 0) + 1
                )
                live = len(self.connected)
            self._span(
                span_kinds.WORKER_JOIN,
                worker=worker_id,
                host=hello.get("host"),
                pid=hello.get("pid"),
                connected=live,
            )
            while not self._stop:
                message = recv_message(connection)
                if message is None:
                    return
                kind = message["type"]
                if kind == REQUEST:
                    if not self._answer_request(connection, worker_id):
                        return
                elif kind == HEARTBEAT:
                    cell = int(message["cell"])
                    with self._lock:
                        self.table.heartbeat(cell, worker_id)
                    self._span(
                        span_kinds.HEARTBEAT,
                        cell=cell,
                        attempt=message.get("attempt"),
                        worker=worker_id,
                    )
                elif kind == RESULT:
                    self._handle_result(message, worker_id)
                elif kind == ERROR:
                    self._handle_error(message, worker_id)
                else:
                    raise DispatchError(
                        f"unexpected message type {kind!r} from worker "
                        f"{worker_id}"
                    )
        except DispatchError as error:
            with self._lock:
                if self._failure is None:
                    self._failure = error
                self._done.set()
        except OSError:
            pass  # connection died mid-send; the release below re-pools
        finally:
            if worker_id is not None:
                with self._lock:
                    released = self.table.release_details(worker_id)
                    count = self.connected.get(worker_id, 0) - 1
                    if count > 0:
                        self.connected[worker_id] = count
                    else:
                        self.connected.pop(worker_id, None)
                    live = len(self.connected)
                    if self.table.done and self._failure is None:
                        self._done.set()
                for index, holder, attempt in released:
                    self._span(
                        span_kinds.RELEASE,
                        cell=index, attempt=attempt, worker=holder,
                    )
                self._span(
                    span_kinds.WORKER_LEAVE,
                    worker=worker_id, connected=live,
                )
            try:
                connection.close()
            except OSError:
                pass

    def _answer_request(
        self, connection: socket.socket, worker_id: str
    ) -> bool:
        """Reply to a work request; ``False`` ends the conversation."""
        with self._lock:
            if self._failure is not None or self.table.done:
                send_message(connection, {"type": SHUTDOWN})
                return False
            index = self.table.lease(worker_id)
            if index is None:
                send_message(
                    connection, {"type": WAIT, "delay": WAIT_DELAY}
                )
                return True
            label = self._label(index)
            attempt = self.table.attempt(index)
            send_message(
                connection,
                {
                    "type": LEASE,
                    "cell": index,
                    "label": label,
                    "task": self.tasks[index],
                    "timeout": self.lease_timeout,
                    "attempt": attempt,
                    "run": self.run_id,
                },
            )
        self._span(
            span_kinds.LEASE,
            cell=index, attempt=attempt, worker=worker_id, label=label,
        )
        return True

    # -- worker message handling ---------------------------------------------

    def _handle_result(
        self, message: Dict[str, Any], worker_id: str
    ) -> None:
        index = int(message["cell"])
        elapsed = float(message.get("elapsed") or 0.0)
        with self._lock:
            first = self.table.complete(
                index, worker_id, message["payload"], elapsed
            )
            if first and worker_id in self.roster:
                self.roster[worker_id]["cells"] += 1
            done = self.table.done
        self._span(
            span_kinds.COMPLETE,
            cell=index,
            attempt=message.get("attempt"),
            worker=worker_id,
            winner=first,
            elapsed=elapsed,
            label=message.get("label"),
        )
        if done:
            self._done.set()

    def _handle_error(
        self, message: Dict[str, Any], worker_id: str
    ) -> None:
        index = message.get("cell")
        label = message.get("label")
        detail = message.get("error", "unknown error")
        kind = message.get("kind", "Exception")
        where = f"cell {index}" + (f" ({label})" if label else "")
        error = DispatchError(
            f"{where} raised {kind} on worker {worker_id}: {detail}"
        )
        traceback_text = message.get("traceback")
        if traceback_text:
            error.worker_traceback = traceback_text
        if index is not None:
            self._span(
                span_kinds.ERROR,
                cell=int(index),
                attempt=message.get("attempt"),
                worker=worker_id,
                error=detail,
                error_kind=kind,
            )
        with self._lock:
            if self._failure is None:
                self._failure = error
            self._done.set()


def bind_listener(address: Tuple[str, int], backlog: int = 16) -> socket.socket:
    """Bind and listen on ``address``; returns the listening socket.

    Raises :class:`~repro.errors.DispatchError` when the address cannot
    be bound (port taken, host unresolvable) — with the address in the
    message, since "bind failed" without it is useless in CI logs.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind(address)
        listener.listen(backlog)
    except OSError as exc:
        listener.close()
        raise DispatchError(
            f"cannot listen on {format_address(address)}: {exc}"
        ) from exc
    return listener
