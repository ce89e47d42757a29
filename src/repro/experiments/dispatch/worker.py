"""The dispatch worker agent behind ``repro worker serve``.

A worker connects to a coordinator, pulls leased cells one at a time,
executes each through the same code path the local backend uses —
:func:`~repro.experiments.simulation.run_simulation` for plain cells,
the idempotent
:func:`~repro.experiments.checkpointing.run_checkpointed_cell` for
checkpointed ones — and sends heartbeats and the result back inline on
the same connection; the coordinator turns the lease and the result into
the span events its ``--progress`` view shows, one live picture across
every host.

Liveness: while a cell runs, a keepalive thread sends ``heartbeat``
messages at a third of the lease timeout, so a *busy* worker never loses
its lease; a *dead or stalled* one stops heartbeating and the
coordinator re-leases its cell. Execution is therefore at-least-once —
safe because every cell is a pure function of its config and the
checkpoint ledger makes retries resume instead of redo.

Session lifecycle: a coordinator batch ends with ``shutdown`` (or simply
a dropped connection); the worker then tries to *reconnect*, because
multi-batch commands (the figure generators) run several batches over
one listening socket. Only when no coordinator answers for
``connect_timeout`` seconds does the agent exit — cleanly, with status
0, if it ever served; with status 1 if it never reached a coordinator
at all.

``crash_after`` is the chaos hook the crash-tolerance tests and the CI
``dispatch-smoke`` job use: after completing N cells the worker takes
one more lease and dies via ``os._exit`` — a real kill, mid-lease, with
no goodbye on the wire.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import sys
import threading
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from ...errors import ReproError
from ...obs import spans as span_kinds
from ...obs.metrics import MetricsRegistry
from ...obs.spans import DEFAULT_RING_SIZE, SpanRecorder, crash_file_name
from ..persistence import config_from_dict
from ..simulation import run_simulation
from .context import set_dispatch_context
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
    result_to_wire,
    send_message,
)

#: Seconds between connection attempts while (re)connecting.
RECONNECT_INTERVAL = 0.2

#: Exit status of a ``--crash-after`` simulated kill (distinctive, so a
#: test watching the process can tell the planned crash from a bug).
CRASH_EXIT_STATUS = 17


def execute_cell(task: Dict[str, Any]) -> Any:
    """Run one leased cell task; returns its ``SimulationResult``.

    ``task`` is the coordinator's JSON payload: the cell's serialized
    config, its engine mode, and — when the batch runs under
    checkpointing — the cell's ledger directory and cadence, in which
    case execution goes through the idempotent
    :func:`~repro.experiments.checkpointing.run_checkpointed_cell`
    (reload finished cells, resume interrupted ones, start fresh ones).

    An optional ``pace`` (wall seconds) holds the cell to at least that
    duration by sleeping out any remainder after the simulation — the
    dispatch benchmark's stand-in for remote compute, so fabric overlap
    is measurable even on a single-core host where extra local
    processes cannot make CPU-bound cells faster. Pacing is pure
    timing: the result bytes are exactly the unpaced cell's.
    """
    engine_mode = task.get("engine_mode", "event")
    pace = task.get("pace")
    start = time.perf_counter() if pace is not None else 0.0
    checkpoint = task.get("checkpoint")
    if checkpoint is not None:
        from ..checkpointing import run_checkpointed_cell

        result = run_checkpointed_cell((
            task["config"],
            checkpoint["directory"],
            float(checkpoint["every"]),
            engine_mode,
        ))
    else:
        result = run_simulation(
            config_from_dict(task["config"]), engine_mode=engine_mode
        )
    if pace is not None:
        remaining = float(pace) - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
    return result


def _rss_bytes() -> float:
    """This process's peak resident set size in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # non-Unix platform
        return 0.0
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1 if sys.platform == "darwin" else 1024
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale)


class WorkerTelemetry:
    """Live health counters of one worker agent.

    Plain attributes mutated from the worker's serving thread (and read
    by ``/metrics`` scrapes — single writes of ints/floats, so no lock
    is needed). ``register_into`` wires everything into a
    :class:`~repro.obs.MetricsRegistry` as pull callbacks: the worker
    pays nothing per scrape it never receives.

    ``heartbeat_rtt_seconds`` is measured around the worker's
    request/reply exchanges with the coordinator — a genuine round trip
    on the same socket the heartbeats use. (Lease heartbeats themselves
    are deliberately one-way: an acknowledgement would sit unread in
    the socket buffer while the worker executes a cell.)
    """

    def __init__(self, identity: str):
        self.identity = identity
        self.started = time.monotonic()
        self.sessions = 0
        self.cells_completed = 0
        self.cells_failed = 0
        self.heartbeats_sent = 0
        self.retried_leases = 0
        self.leases_held = 0
        self.heartbeat_rtt_seconds = 0.0
        self.queue_wait_seconds = 0.0
        self.current_cell: Optional[int] = None

    def uptime(self) -> float:
        return time.monotonic() - self.started

    def cells_per_second(self) -> float:
        uptime = self.uptime()
        return self.cells_completed / uptime if uptime > 0 else 0.0

    def health(self) -> Dict[str, Any]:
        """The worker's ``/healthz`` document body."""
        return {
            "role": "worker",
            "worker": self.identity,
            "sessions": self.sessions,
            "cells_completed": self.cells_completed,
            "leases_held": self.leases_held,
            "current_cell": self.current_cell,
            "uptime_seconds": self.uptime(),
        }

    def register_into(self, registry: MetricsRegistry) -> None:
        """Register every health metric as a pull callback."""
        for name, callback, help_text, kind in (
            ("worker.cells_completed", lambda: self.cells_completed,
             "Cells this worker completed and reported", "counter"),
            ("worker.cells_failed", lambda: self.cells_failed,
             "Cells that raised on this worker", "counter"),
            ("worker.sessions", lambda: self.sessions,
             "Coordinator sessions served", "counter"),
            ("worker.heartbeats_sent", lambda: self.heartbeats_sent,
             "Lease keepalive heartbeats sent", "counter"),
            ("worker.retried_leases", lambda: self.retried_leases,
             "Leases received with attempt > 0 (another worker's retry)",
             "counter"),
            ("worker.leases_held", lambda: self.leases_held,
             "Leases currently held (0 or 1)", "gauge"),
            ("worker.cells_per_second", self.cells_per_second,
             "Completed cells per wall second of uptime", "gauge"),
            ("worker.heartbeat_rtt_seconds",
             lambda: self.heartbeat_rtt_seconds,
             "Last coordinator request/reply round-trip latency", "gauge"),
            ("worker.queue_wait_seconds", lambda: self.queue_wait_seconds,
             "Wall seconds the last lease request waited for work",
             "gauge"),
            ("worker.rss_bytes", _rss_bytes,
             "Peak resident set size of the worker process", "gauge"),
            ("worker.uptime_seconds", self.uptime,
             "Wall seconds since the agent started", "gauge"),
        ):
            registry.register(name, callback, help=help_text, kind=kind)


class _Keepalive:
    """Background heartbeats for the cell currently executing."""

    def __init__(
        self,
        sock: socket.socket,
        send_lock: threading.Lock,
        cell: int,
        interval: float,
        attempt: int = 0,
        telemetry: Optional[WorkerTelemetry] = None,
    ):
        self._sock = sock
        self._send_lock = send_lock
        self._cell = cell
        self._attempt = attempt
        self._telemetry = telemetry
        self._interval = max(0.1, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="dispatch-keepalive", daemon=True
        )

    def __enter__(self) -> "_Keepalive":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._send_lock:
                    send_message(
                        self._sock,
                        {
                            "type": HEARTBEAT,
                            "cell": self._cell,
                            "attempt": self._attempt,
                            "timestamp": time.time(),
                            "mono": time.monotonic(),
                        },
                    )
                if self._telemetry is not None:
                    self._telemetry.heartbeats_sent += 1
            except OSError:
                return  # connection is gone; the main loop will notice


def _connect(
    address: Tuple[str, int], timeout: float
) -> Optional[socket.socket]:
    """Dial the coordinator, retrying for up to ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.connect(address)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            sock.close()
            if time.monotonic() >= deadline:
                return None
            time.sleep(RECONNECT_INTERVAL)


def serve(
    connect: Tuple[str, int],
    *,
    connect_timeout: float = 10.0,
    worker_id: Optional[str] = None,
    crash_after: Optional[int] = None,
    log=None,
    span_log=None,
    metrics_port: Optional[int] = None,
    span_ring: int = DEFAULT_RING_SIZE,
    crash_dir=None,
) -> int:
    """Serve leases from the coordinator at ``connect``; returns exit status.

    Loops over coordinator *sessions* (one per batch) until no
    coordinator answers for ``connect_timeout`` seconds. ``worker_id``
    names this worker in rosters and manifests (default:
    ``host:pid``). ``crash_after`` is the chaos hook described in the
    module docstring. ``log`` is an optional callable for one-line
    status messages (the CLI passes a stderr printer).

    Observability (all off by default, all zero-cost when off):
    ``span_log`` appends this worker's cell-lifecycle span events to a
    JSONL file; ``metrics_port`` serves ``/metrics`` + ``/healthz``
    with live worker health (leases held, cells/s, round-trip latency,
    RSS, queue wait); ``crash_dir`` keeps the last ``span_ring`` span
    events in memory and flushes them to ``crash-<worker>.jsonl`` there
    on abnormal exit (SIGTERM, unhandled exception, or the chaos
    hook's simulated kill), so a dead worker's postmortem does not
    depend on what it managed to stream.
    """
    host = socket.gethostname()
    pid = os.getpid()
    identity = worker_id or f"{host}:{pid}"
    say = log if log is not None else (lambda message: None)
    spans: Optional[SpanRecorder] = None
    crash_path: Optional[pathlib.Path] = None
    if span_log is not None or crash_dir is not None:
        spans = SpanRecorder(
            span_log,
            source=identity,
            ring_size=span_ring if crash_dir is not None else 0,
        )
    if crash_dir is not None:
        crash_path = pathlib.Path(crash_dir) / crash_file_name(identity)
    telemetry = WorkerTelemetry(identity)
    obs_server = None
    if metrics_port is not None:
        from ...obs.http import ObservabilityServer

        registry = MetricsRegistry()
        telemetry.register_into(registry)
        obs_server = ObservabilityServer(
            metrics_port, registry, health=telemetry.health
        )
        bound_host, bound_port = obs_server.start()
        say(f"[worker {identity}] metrics on "
            f"http://{bound_host}:{bound_port}/metrics")
    _install_crash_handler(spans, crash_path)
    completed = 0
    sessions = 0
    say(f"[worker {identity}] connecting to {format_address(connect)}")
    try:
        while True:
            sock = _connect(connect, connect_timeout)
            if sock is None:
                break
            try:
                completed = _serve_session(
                    sock,
                    identity=identity,
                    host=host,
                    pid=pid,
                    coordinator=format_address(connect),
                    completed=completed,
                    crash_after=crash_after,
                    say=say,
                    spans=spans,
                    telemetry=telemetry,
                    crash_path=crash_path,
                )
                sessions += 1
            finally:
                try:
                    sock.close()
                except OSError:
                    pass
            say(f"[worker {identity}] session over ({completed} cells so "
                f"far); waiting for another coordinator")
    except BaseException:
        # Unhandled death: leave the forensics ring behind on the way
        # down (the ring outlives the streamed log's last flushed line).
        if spans is not None and crash_path is not None:
            spans.emit(span_kinds.CRASH, reason="unhandled-exception")
            spans.flush_ring(crash_path)
        raise
    finally:
        if obs_server is not None:
            obs_server.close()
        if spans is not None:
            spans.close()
    set_dispatch_context(None)
    if sessions == 0:
        say(f"[worker {identity}] no coordinator at "
            f"{format_address(connect)} within {connect_timeout:g}s")
        return 1
    say(f"[worker {identity}] done: {completed} cells over "
        f"{sessions} session(s)")
    return 0


def _install_crash_handler(
    spans: Optional[SpanRecorder], crash_path: Optional[pathlib.Path]
) -> None:
    """Flush the forensics ring on SIGTERM (best-effort, main thread only).

    ``kill <pid>`` is how deployments reap stuck workers; without this
    the ring would die with the process. SIGKILL still loses the ring —
    that is what the streamed ``--span-log`` is for.
    """
    if spans is None or crash_path is None:
        return

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        spans.emit(span_kinds.CRASH, reason="sigterm")
        spans.flush_ring(crash_path)
        os._exit(128 + signal.SIGTERM)

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use); ring flush still
        # covers the exception and chaos-hook paths


def _serve_session(
    sock: socket.socket,
    *,
    identity: str,
    host: str,
    pid: int,
    coordinator: str,
    completed: int,
    crash_after: Optional[int],
    say,
    spans: Optional[SpanRecorder] = None,
    telemetry: Optional[WorkerTelemetry] = None,
    crash_path: Optional[pathlib.Path] = None,
) -> int:
    """One hello-to-shutdown conversation; returns updated cell count."""
    send_lock = threading.Lock()
    set_dispatch_context({
        "backend": "remote",
        "worker": identity,
        "host": host,
        "pid": pid,
        "coordinator": coordinator,
    })
    if telemetry is not None:
        telemetry.sessions += 1
    if spans is not None:
        spans.emit(span_kinds.SESSION, worker=identity,
                   coordinator=coordinator)
    try:
        with send_lock:
            send_message(sock, {
                "type": HELLO,
                "protocol": PROTOCOL_VERSION,
                "worker": identity,
                "host": host,
                "pid": pid,
            })
        # ``wait_since`` anchors the queue-wait metric: how long this
        # worker has been asking for work since its last lease ended.
        wait_since = time.monotonic()
        while True:
            request_at = time.monotonic()
            with send_lock:
                send_message(sock, {"type": REQUEST})
            message = recv_message(sock)
            if telemetry is not None:
                # A genuine round trip on the lease socket — the
                # heartbeat-path latency an operator wants to see.
                telemetry.heartbeat_rtt_seconds = (
                    time.monotonic() - request_at
                )
            if message is None or message["type"] == SHUTDOWN:
                return completed
            if message["type"] == WAIT:
                time.sleep(float(message.get("delay", 0.2)))
                continue
            if message["type"] != LEASE:
                return completed
            if telemetry is not None:
                telemetry.queue_wait_seconds = (
                    time.monotonic() - wait_since
                )
            completed = _execute_lease(
                sock, send_lock, message,
                pid=pid, completed=completed,
                crash_after=crash_after, say=say,
                identity=identity, spans=spans,
                telemetry=telemetry, crash_path=crash_path,
            )
            wait_since = time.monotonic()
    except OSError:
        return completed  # coordinator went away mid-send


def _execute_lease(
    sock: socket.socket,
    send_lock: threading.Lock,
    lease: Dict[str, Any],
    *,
    pid: int,
    completed: int,
    crash_after: Optional[int],
    say,
    identity: Optional[str] = None,
    spans: Optional[SpanRecorder] = None,
    telemetry: Optional[WorkerTelemetry] = None,
    crash_path: Optional[pathlib.Path] = None,
) -> int:
    """Run one leased cell, streaming heartbeats; returns new count."""
    index = int(lease["cell"])
    label = lease.get("label")
    attempt = int(lease.get("attempt") or 0)
    run = lease.get("run")
    if telemetry is not None:
        telemetry.leases_held = 1
        telemetry.current_cell = index
        if attempt > 0:
            telemetry.retried_leases += 1
    if spans is not None:
        spans.emit(
            span_kinds.EXECUTE,
            run=run, cell=index, attempt=attempt, worker=identity,
            label=label,
        )
    if crash_after is not None and completed >= crash_after:
        # The chaos hook: die holding the lease, no goodbye. os._exit
        # skips every finally/atexit — as close to `kill -9` as a
        # process can do to itself. The forensics ring is flushed first,
        # standing in for the SIGTERM handler a real deployment's
        # reaper would have triggered.
        say(f"[worker] --crash-after {crash_after}: dying on cell {index}")
        if spans is not None and crash_path is not None:
            spans.emit(
                span_kinds.CRASH,
                run=run, cell=index, attempt=attempt, worker=identity,
                reason="crash-after",
            )
            spans.flush_ring(crash_path)
        os._exit(CRASH_EXIT_STATUS)
    interval = float(lease.get("timeout", 30.0)) / 3.0
    start = time.perf_counter()
    try:
        keepalive = _Keepalive(
            sock, send_lock, index, interval, attempt, telemetry
        )
        with keepalive:
            result = execute_cell(lease["task"])
        elapsed = time.perf_counter() - start
    except ReproError as error:
        if telemetry is not None:
            telemetry.cells_failed += 1
            telemetry.leases_held = 0
            telemetry.current_cell = None
        if spans is not None:
            spans.emit(
                span_kinds.ERROR,
                run=run, cell=index, attempt=attempt, worker=identity,
                error=str(error), error_kind=type(error).__name__,
            )
        with send_lock:
            send_message(sock, {
                "type": ERROR,
                "cell": index,
                "attempt": attempt,
                "label": label,
                "error": str(error),
                "kind": type(error).__name__,
                "traceback": traceback.format_exc(),
                "timestamp": time.time(),
                "mono": time.monotonic(),
            })
        return completed
    if spans is not None:
        spans.emit(
            span_kinds.FINISH,
            run=run, cell=index, attempt=attempt, worker=identity,
            elapsed=elapsed,
        )
    with send_lock:
        send_message(sock, {
            "type": RESULT,
            "cell": index,
            "attempt": attempt,
            "label": label,
            "worker": pid,
            "elapsed": elapsed,
            "timestamp": time.time(),
            "mono": time.monotonic(),
            "payload": result_to_wire(result),
        })
    if spans is not None:
        spans.emit(
            span_kinds.RESULT_SENT,
            run=run, cell=index, attempt=attempt, worker=identity,
        )
    if telemetry is not None:
        telemetry.cells_completed += 1
        telemetry.leases_held = 0
        telemetry.current_cell = None
    say(f"[worker] cell {index}"
        + (f" ({label})" if label else "")
        + f" done in {elapsed:.3f}s")
    return completed + 1
