"""Pluggable execution backends behind :class:`ParallelExecutor`.

A *backend* decides where a batch of simulation cells physically runs:

* :class:`LocalBackend` — the original path, byte-for-byte: a serial
  loop at ``workers=1``, a :class:`concurrent.futures.ProcessPoolExecutor`
  above it. Selecting it changes nothing about how the executor behaved
  before backends existed.
* :class:`RemoteBackend` — a coordinator that owns a listening TCP
  socket, leases cells to however many ``repro worker serve`` agents
  connect (see :mod:`~repro.experiments.dispatch.coordinator`), streams
  its cell-lifecycle span events into the executor's
  :class:`~repro.obs.progress.ProgressSink`, and reassembles results in
  submission order.

Both backends uphold the executor's core guarantee: results are
bit-identical to ``workers=1`` regardless of worker count, host count,
lease order, or mid-grid worker crashes — every cell's seed is fixed
before dispatch and a cell is a pure function of its config.

The listening socket is bound once per :class:`RemoteBackend` and kept
across batches: multi-batch commands (the figure generators) run several
coordinated batches back-to-back, with workers reconnecting in between.
"""

from __future__ import annotations

import socket
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ...errors import ConfigurationError
from ...obs.spans import SpanRecorder
from ..config import SimulationConfig
from ..metrics import SimulationResult
from ..persistence import config_to_dict
from .coordinator import COORDINATOR, Coordinator, DispatchOutcome, bind_listener
from .protocol import format_address, parse_address

#: Backend names accepted by the executor and the CLI.
BACKENDS = ("local", "remote")

Address = Tuple[str, int]


class Backend:
    """Where a batch of simulation cells runs; see the module docstring."""

    #: Short name recorded in stats, manifests and the CLI.
    name = "abstract"

    def run_simulations(
        self,
        executor,
        configs: Sequence[SimulationConfig],
        labels: Optional[Sequence[Optional[str]]],
    ) -> List[SimulationResult]:
        """Run one simulation per config; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any long-lived resources (sockets)."""


class LocalBackend(Backend):
    """The in-process / process-pool path — the pre-backend behavior."""

    name = "local"

    def run_simulations(self, executor, configs, labels):
        return executor._run_simulations_local(configs, labels)


class RemoteBackend(Backend):
    """Coordinate a batch over TCP-connected worker agents.

    Parameters
    ----------
    listen:
        ``(host, port)`` or ``"host:port"`` to bind the coordinator on.
        Port ``0`` picks an ephemeral port — call :meth:`bind` to learn
        it before starting workers.
    lease_timeout:
        Seconds a leased cell may go without a heartbeat before it is
        re-leased to another worker.
    timeout:
        Optional overall wall-clock limit per batch;
        :class:`~repro.errors.DispatchError` on expiry. ``None`` (the
        default) waits indefinitely — workers may join late.
    on_listen:
        Optional callback invoked once with the bound ``(host, port)``
        (the CLI prints the ``repro worker serve --connect`` hint).
    pace:
        Optional minimum wall seconds per cell *on the worker* — the
        dispatch benchmark's emulation of remote compute (a worker
        sleeps out the remainder after the real simulation). Results
        are unaffected; only timing changes. ``None`` (the default)
        means real cells run at real speed.
    span_log:
        Optional JSONL path receiving the coordinator's cell-lifecycle
        span events (:mod:`repro.obs.spans`). ``None`` (the default)
        records nothing and pays nothing — the span layer is provably
        absent, and results are bit-identical either way.
    metrics_port:
        Optional TCP port for the coordinator's ``/metrics`` +
        ``/healthz`` endpoint (``0`` picks an ephemeral port). ``None``
        serves nothing.
    """

    name = "remote"

    def __init__(
        self,
        listen: Union[Address, str, None] = None,
        *,
        lease_timeout: float = 30.0,
        timeout: Optional[float] = None,
        on_listen: Optional[Callable[[Address], None]] = None,
        pace: Optional[float] = None,
        span_log=None,
        metrics_port: Optional[int] = None,
    ):
        if isinstance(listen, str):
            listen = parse_address(listen)
        self.listen: Address = listen if listen is not None else ("127.0.0.1", 0)
        if lease_timeout <= 0:
            raise ConfigurationError(
                f"lease_timeout must be > 0 seconds, got {lease_timeout!r}"
            )
        if pace is not None and pace < 0:
            raise ConfigurationError(
                f"pace must be >= 0 wall seconds, got {pace!r}"
            )
        self.lease_timeout = float(lease_timeout)
        self.timeout = timeout
        self.on_listen = on_listen
        self.pace = None if pace is None else float(pace)
        self.span_log = span_log
        self.metrics_port = metrics_port
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(span_log, source=COORDINATOR)
            if span_log is not None
            else None
        )
        self._listener: Optional[socket.socket] = None
        self._obs_server = None
        self._coordinator: Optional[Coordinator] = None
        self._batches = 0
        #: ``(host, port)`` of the metrics endpoint once serving.
        self.metrics_address: Optional[Address] = None
        #: Correlation id of the most recent batch's span events.
        self.last_run_id: Optional[str] = None
        #: Outcome of the most recent batch (roster, retries, timings).
        self.last_outcome: Optional[DispatchOutcome] = None

    # -- socket lifecycle ----------------------------------------------------

    def bind(self) -> Address:
        """Bind the listening socket (idempotent); returns the address.

        Binding is separate from running so callers can learn an
        ephemeral port — and start workers against it — before the
        first batch blocks in the coordinator.
        """
        if self._listener is None:
            self._listener = bind_listener(self.listen)
            if self.on_listen is not None:
                self.on_listen(self.address)
        if self.metrics_port is not None and self._obs_server is None:
            self._obs_server = self._start_obs_server()
        return self.address

    def _start_obs_server(self):
        """The coordinator's ``/metrics`` + ``/healthz`` endpoint.

        Every fabric metric is a pull callback reading the live
        coordinator's lease table — a scrape costs the coordinator
        nothing between scrapes, and nothing at all when no coordinator
        batch is active (callbacks report zeros).
        """
        from ...obs.http import ObservabilityServer
        from ...obs.metrics import MetricsRegistry

        def table():
            coordinator = self._coordinator
            return coordinator.table if coordinator is not None else None

        def counts(reader):
            def value():
                current = table()
                return reader(current) if current is not None else 0
            return value

        registry = MetricsRegistry()
        for name, reader, help_text, kind in (
            ("fabric.cells_total",
             lambda t: t.cell_count,
             "Cells in the current (or last) coordinated batch", "gauge"),
            ("fabric.cells_completed",
             lambda t: t.completed_count,
             "Cells with a recorded first completion", "gauge"),
            ("fabric.cells_pending",
             lambda t: t.pending_count,
             "Cells awaiting a worker lease", "gauge"),
            ("fabric.cells_leased",
             lambda t: t.leased_count,
             "Cells currently out on a lease", "gauge"),
            ("fabric.lease_retries",
             lambda t: sum(t.retried.values()),
             "Lease expiries + dead-worker releases this batch",
             "counter"),
        ):
            registry.register(name, counts(reader), help=help_text,
                              kind=kind)
        registry.register(
            "fabric.workers_connected",
            lambda: (
                len(self._coordinator.connected)
                if self._coordinator is not None else 0
            ),
            help="Workers with a live coordinator connection",
        )
        registry.register(
            "fabric.workers_seen",
            lambda: (
                len(self._coordinator.roster)
                if self._coordinator is not None else 0
            ),
            help="Distinct workers that ever joined this batch",
        )
        registry.register(
            "fabric.batches",
            lambda: self._batches,
            help="Coordinated batches run over this listener",
            kind="counter",
        )

        def health() -> Dict[str, Any]:
            return {
                "role": "coordinator",
                "listen": format_address(self.address),
                "batches": self._batches,
                "run": self.last_run_id,
            }

        server = ObservabilityServer(
            self.metrics_port, registry, health=health
        )
        self.metrics_address = server.start()
        return server

    @property
    def address(self) -> Address:
        """The bound ``(host, port)``; binds on first use."""
        if self._listener is None:
            return self.bind()
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        """Close the listening socket; connected workers will drain out."""
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._obs_server is not None:
            self._obs_server.close()
            self._obs_server = None
            self.metrics_address = None
        if self.spans is not None:
            self.spans.close()

    def __enter__(self) -> "RemoteBackend":
        self.bind()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run_simulations(self, executor, configs, labels):
        from ..executor import ExecutionStats

        self.bind()
        run_id = uuid.uuid4().hex[:12]
        self.last_run_id = run_id
        coordinator = Coordinator(
            self._cell_specs(executor, configs),
            labels,
            listener=self._listener,
            lease_timeout=self.lease_timeout,
            sink=executor.progress,
            timeout=self.timeout,
            spans=self.spans,
            run_id=run_id,
        )
        self._coordinator = coordinator
        self._batches += 1
        outcome = coordinator.run()
        self.last_outcome = outcome
        executor.last_stats = ExecutionStats.from_completions(
            workers=max(1, len(outcome.roster)),
            wall_time=outcome.wall_time,
            completions=outcome.completions,
        )
        return outcome.results

    def _cell_specs(
        self, executor, configs: Sequence[SimulationConfig]
    ) -> List[Dict[str, Any]]:
        """The wire task for each cell, mirroring the local cell layout.

        Checkpointed cells get the same ``cell-NNNN/`` ledger directories
        the local backend numbers in submission order — so a grid
        interrupted under one backend resumes under the other, and their
        bundles land in identical places.
        """
        specs: List[Dict[str, Any]] = []
        for index, config in enumerate(configs):
            spec: Dict[str, Any] = {
                "config": config_to_dict(config),
                "engine_mode": executor.engine_mode,
            }
            if self.pace is not None:
                spec["pace"] = self.pace
            if executor.checkpoint_dir is not None:
                spec["checkpoint"] = {
                    "directory": str(
                        executor.checkpoint_dir / f"cell-{index:04d}"
                    ),
                    "every": executor.checkpoint_every,
                }
            specs.append(spec)
        return specs

    def dispatch_info(self) -> Dict[str, Any]:
        """A manifest-ready description of the last batch's dispatch."""
        info: Dict[str, Any] = {
            "backend": self.name,
            "listen": format_address(self.address),
            "lease_timeout": self.lease_timeout,
        }
        if self.span_log is not None:
            info["span_log"] = str(self.span_log)
        if self.last_run_id is not None:
            info["run"] = self.last_run_id
        if self.metrics_address is not None:
            info["metrics"] = format_address(self.metrics_address)
        if self.last_outcome is not None:
            info["roster"] = self.last_outcome.roster_list()
            if self.last_outcome.retried:
                info["retried_cells"] = dict(self.last_outcome.retried)
        return info

    def __repr__(self) -> str:
        bound = (
            format_address(self._listener.getsockname()[:2])
            if self._listener is not None
            else format_address(self.listen) + " (unbound)"
        )
        return f"<RemoteBackend {bound} lease_timeout={self.lease_timeout}>"


def resolve_backend(
    backend: Union[str, Backend, None],
    *,
    listen: Union[Address, str, None] = None,
    lease_timeout: float = 30.0,
    dispatch_timeout: Optional[float] = None,
    on_listen: Optional[Callable[[Address], None]] = None,
    span_log=None,
    metrics_port: Optional[int] = None,
) -> Backend:
    """Turn a backend name (or ready instance) into a :class:`Backend`.

    ``None`` and ``"local"`` give the zero-change local path; ``"remote"``
    builds a :class:`RemoteBackend` from the keyword options. A
    :class:`Backend` instance passes through untouched (the options are
    ignored — the instance already carries its own).
    """
    if backend is None:
        return LocalBackend()
    if isinstance(backend, Backend):
        return backend
    if backend == "local":
        return LocalBackend()
    if backend == "remote":
        return RemoteBackend(
            listen,
            lease_timeout=lease_timeout,
            timeout=dispatch_timeout,
            on_listen=on_listen,
            span_log=span_log,
            metrics_port=metrics_port,
        )
    raise ConfigurationError(
        f"unknown dispatch backend {backend!r}; choose from {BACKENDS}"
    )
