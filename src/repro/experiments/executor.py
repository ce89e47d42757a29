"""Process-parallel execution of independent experiment cells.

The paper's studies are *embarrassingly parallel*: every cell of a
factorial grid, every value of a sweep, and every replication is one
fully independent simulation whose seed is derived up front from the
master seed (:func:`repro.sim.rng.derive_seed`).  A simulation is a pure
function of its :class:`~repro.experiments.config.SimulationConfig`, so
the same set of configs produces bit-identical results no matter how
many worker processes run them or in which order they complete.

:class:`ParallelExecutor` exploits that:

* ``workers=1`` (the default everywhere) is a dependency-free serial
  loop — no processes, no pickling, and exceptions propagate with their
  original traceback;
* ``workers>1`` fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor`, submitting *chunks*
  of cells to amortize inter-process overhead, and reassembles results
  in submission order so outputs are independent of completion order;
* every cell's wall-clock time is captured (inside the worker, around
  the cell alone) and summarized in an :class:`ExecutionStats`, whose
  ``speedup`` compares the sum of per-cell times against the observed
  wall time.

The price of ``workers>1`` is process startup plus pickling each
:class:`SimulationConfig` out and each
:class:`~repro.experiments.metrics.SimulationResult` back; see
``docs/PERFORMANCE.md`` for measurements and worker-count guidance.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pathlib
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from ..errors import ConfigurationError
from ..obs import spans
from ..obs.progress import ProgressSink, drained
from .config import SimulationConfig
from .metrics import SimulationResult
from .simulation import DEFAULT_ENGINE_MODE, ENGINE_MODES, run_simulation

T = TypeVar("T")
R = TypeVar("R")
PathLike = Union[str, pathlib.Path]


def resolve_workers(workers: Optional[int]) -> int:
    """Validate a worker count; ``None`` means one per available CPU."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
    return int(workers)


@dataclass
class ExecutionStats:
    """Timing of one batch of cells run through the executor."""

    #: Worker processes used (1 = in-process serial loop; for the
    #: remote backend, the number of distinct workers that connected).
    workers: int
    #: Wall-clock seconds for the whole batch, including pool startup.
    wall_time: float
    #: Per-cell wall-clock seconds, in submission order, measured inside
    #: the worker around the cell function alone.
    cell_times: List[float]

    @classmethod
    def from_completions(
        cls,
        workers: int,
        wall_time: float,
        completions: Sequence[Sequence],
    ) -> "ExecutionStats":
        """Build stats from ``(index, elapsed, ...)`` completion records.

        The local pool collects per-cell times in submission order, but
        remote leases return in *arbitrary* order — and, after a crash
        re-lease, a cell can even complete more than once (a stalled
        worker finishing late behind the retry's result). Summing raw
        completion times in arrival order would misalign
        :attr:`cell_times` with submission-order labels and double-count
        re-leased cells in :attr:`total_cell_time` and :attr:`speedup`.
        This constructor reorders by submission index and keeps only
        each cell's **first** completion, so the stats are identical
        however completions interleaved.
        """
        first: dict = {}
        for completion in completions:
            index, elapsed = int(completion[0]), float(completion[1])
            if index not in first:
                first[index] = elapsed
        return cls(
            workers=workers,
            wall_time=wall_time,
            cell_times=[first[index] for index in sorted(first)],
        )

    @property
    def cell_count(self) -> int:
        return len(self.cell_times)

    @property
    def total_cell_time(self) -> float:
        """Sum of per-cell times — the serial-equivalent workload."""
        return sum(self.cell_times)

    @property
    def mean_cell_time(self) -> float:
        return self.total_cell_time / len(self.cell_times) if self.cell_times else 0.0

    @property
    def max_cell_time(self) -> float:
        return max(self.cell_times) if self.cell_times else 0.0

    @property
    def speedup(self) -> float:
        """Serial-equivalent time over observed wall time.

        ``0.0`` for an empty batch (there was nothing to speed up);
        ``inf`` when cells ran but the wall clock measured zero — work
        happened in no measurable time, which only a degenerate clock
        resolution produces, and which must not masquerade as the 0.0
        of an empty batch.
        """
        if not self.cell_times:
            return 0.0
        if self.wall_time <= 0:
            return float("inf")
        return self.total_cell_time / self.wall_time

    def summary_rows(self) -> List[Tuple[str, str]]:
        """(label, value) pairs for the reporting layer."""
        if not self.cell_times or self.wall_time <= 0:
            rendered_speedup = "n/a"
        else:
            rendered_speedup = f"{self.speedup:.2f}x"
        return [
            ("workers", str(self.workers)),
            ("cells", str(self.cell_count)),
            ("wall time", f"{self.wall_time:.3f} s"),
            ("cell time (mean)", f"{self.mean_cell_time:.3f} s"),
            ("cell time (max)", f"{self.max_cell_time:.3f} s"),
            ("cell time (total)", f"{self.total_cell_time:.3f} s"),
            ("speedup vs serial", rendered_speedup),
        ]


def _timed_call(fn: Callable[[T], R], item: T) -> Tuple[R, float]:
    """Run one cell and capture its wall time (runs inside the worker)."""
    start = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - start


def _run_chunk(
    fn: Callable[[T], R],
    chunk: Sequence[T],
    notices=None,
    base_index: int = 0,
) -> List[Tuple[R, float]]:
    """Worker entry point: run one chunk of cells, timing each.

    With ``notices`` (a :class:`_BatchEvents`, or a picklable
    ``multiprocessing.Manager`` queue drained into one), a
    ``(kind, cell, worker, elapsed)`` notice is put before and after
    each cell, carrying its submission-order index (``base_index`` +
    position) and this process's pid. The notices are pure observation
    — they never touch the cell's work — so results are bit-identical
    with or without them.
    """
    if notices is None:
        return [_timed_call(fn, item) for item in chunk]
    worker = str(os.getpid())
    outcomes: List[Tuple[R, float]] = []
    for position, item in enumerate(chunk):
        index = base_index + position
        notices.put((spans.LEASE, index, worker, None))
        outcome = _timed_call(fn, item)
        outcomes.append(outcome)
        notices.put((spans.COMPLETE, index, worker, outcome[1]))
    return outcomes


#: ``source`` of the span events a local batch emits.
SOURCE = "executor"


class _BatchEvents:
    """Stamps one local batch's span events in this process for a sink.

    Every event carries the batch's own ``run`` id and the one
    ``source`` :data:`SOURCE`, so ``repro fabric timeline`` reconciles a
    local progress log exactly as it does a coordinator's span log.
    """

    def __init__(self, sink: ProgressSink, labels):
        self.sink = sink
        self.labels = labels
        self.run = uuid.uuid4().hex[:12]

    def emit(self, kind: str, **fields) -> None:
        self.sink.emit(spans.span_now(kind, SOURCE, run=self.run, **fields))

    def label(self, index: int) -> Optional[str]:
        return self.labels[index] if self.labels is not None else None

    def put(self, notice) -> None:
        """Stamp one :func:`_run_chunk` notice as a lease or completion."""
        kind, index, worker, elapsed = notice
        fields = {} if elapsed is None else {"winner": True, "elapsed": elapsed}
        self.emit(
            kind, cell=index, attempt=0, worker=worker,
            label=self.label(index), **fields,
        )


class ParallelExecutor:
    """Run independent cells serially or across worker processes.

    Parameters
    ----------
    workers:
        Worker processes. ``1`` (default) runs everything in-process
        with zero dependencies on :mod:`multiprocessing`; ``None`` uses
        one worker per available CPU. Values below 1 raise
        :class:`~repro.errors.ConfigurationError`.
    chunk_size:
        Cells submitted per pool task. ``None`` (default) picks
        ``max(1, cells // (workers * 4))`` — large enough to amortize
        submission overhead, small enough to keep workers load-balanced.
        Explicit values below 1 raise
        :class:`~repro.errors.ConfigurationError`.
    progress:
        An optional :class:`~repro.obs.progress.ProgressSink` receiving
        each batch's span events (``batch-begin``, ``submit``,
        ``lease``, ``complete``, ``batch-end``). ``None`` (default)
        builds no event at all — no queue, no manager process, no
        per-cell overhead. Events are stamped in this process: inline on
        the serial path, from workers' notices on one drain thread on
        the pool path. They never perturb cell seeding or results.
    checkpoint_dir:
        Optional directory making :meth:`run_simulations` batches
        *restartable*: each cell checkpoints into its own
        ``cell-NNNN/`` subdirectory every ``checkpoint_every`` simulated
        seconds, and a rerun of the same batch over the same directory
        reloads completed cells, resumes interrupted ones from their
        last digest-verified snapshot and runs the rest fresh — with
        results bit-identical to an uninterrupted batch (see
        :mod:`repro.experiments.checkpointing`). ``None`` (default)
        changes nothing.
    checkpoint_every:
        Checkpoint cadence in simulated seconds; required (> 0) when
        ``checkpoint_dir`` is set.
    engine_mode:
        Dispatch engine for every cell: ``"fastforward"`` (default, the
        hybrid fluid/event engine of :mod:`repro.sim.fastforward`) or
        ``"event"`` (the reference per-event engine, for equivalence
        checks). Both produce bit-identical results, so this only
        changes wall-clock time, never outputs.
    backend:
        Where :meth:`run_simulations` batches physically run:
        ``"local"`` (default — the process-pool path above, byte-for-byte
        unchanged), ``"remote"`` (a coordinator leasing cells to
        ``repro worker serve`` agents over TCP; see
        :mod:`repro.experiments.dispatch` and ``docs/DISTRIBUTED.md``),
        or a ready :class:`~repro.experiments.dispatch.backend.Backend`
        instance. Results are bit-identical across backends.
    listen, lease_timeout, dispatch_timeout, on_listen:
        Remote-backend options (ignored for ``"local"``): the
        coordinator's bind address (``"host:port"``, tuple, or ``None``
        for an ephemeral localhost port), the per-lease heartbeat
        deadline, an optional overall batch deadline, and an optional
        bound-address callback.
    span_log, metrics_port:
        Remote-backend observability (ignored for ``"local"``): an
        optional JSONL path receiving coordinator span events
        (:mod:`repro.obs.spans`) and an optional port for the
        coordinator's ``/metrics`` + ``/healthz`` endpoint. Both default
        to off, in which case the observability plane is provably
        absent — results are bit-identical either way.

    After each :meth:`map` / :meth:`run_simulations` call,
    :attr:`last_stats` holds the batch's :class:`ExecutionStats`.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressSink] = None,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_every: float = 0.0,
        engine_mode: str = DEFAULT_ENGINE_MODE,
        backend=None,
        listen=None,
        lease_timeout: float = 30.0,
        dispatch_timeout: Optional[float] = None,
        on_listen=None,
        span_log=None,
        metrics_port: Optional[int] = None,
    ):
        self.workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size!r}"
            )
        self.chunk_size = chunk_size
        self.progress = progress
        if checkpoint_dir is not None and checkpoint_every <= 0:
            raise ConfigurationError(
                f"checkpoint_every must be > 0 when checkpoint_dir is set, "
                f"got {checkpoint_every!r}"
            )
        self.checkpoint_dir = (
            pathlib.Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = float(checkpoint_every)
        if engine_mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine mode {engine_mode!r}; "
                f"choose from {ENGINE_MODES}"
            )
        self.engine_mode = engine_mode
        # Imported here, not at module top: the dispatch package pulls
        # in the persistence layer, which circularly reaches back to
        # this module during package import.
        from .dispatch.backend import resolve_backend

        self.backend = resolve_backend(
            backend,
            listen=listen,
            lease_timeout=lease_timeout,
            dispatch_timeout=dispatch_timeout,
            on_listen=on_listen,
            span_log=span_log,
            metrics_port=metrics_port,
        )
        self.last_stats: Optional[ExecutionStats] = None

    def _chunks(self, items: List[T]) -> List[List[T]]:
        size = self.chunk_size
        if size is None:
            size = max(1, len(items) // (self.workers * 4))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> List[R]:
        """Apply ``fn`` to every item; results come back in input order.

        With ``workers=1`` this is a plain loop: ``fn`` and the items
        need not be picklable and any exception propagates untouched.
        With ``workers>1``, ``fn`` must be a module-level callable and
        items/results must pickle; a cell's exception is re-raised here
        as soon as its chunk is collected.

        ``labels`` (optional, one per item) name the cells in progress
        events; they are ignored without a progress sink.

        :meth:`map` always runs on this machine — arbitrary callables
        cannot cross the dispatch wire — so it refuses to run under a
        remote backend rather than silently executing locally.
        """
        if self.backend.name != "local":
            raise ConfigurationError(
                f"ParallelExecutor.map() requires the local backend "
                f"(got {self.backend.name!r}); only run_simulations() "
                f"batches can be dispatched remotely"
            )
        items = list(items)
        if labels is not None and len(labels) != len(items):
            raise ConfigurationError(
                f"got {len(labels)} labels for {len(items)} items"
            )
        events = (
            _BatchEvents(self.progress, labels)
            if self.progress is not None else None
        )
        start = time.perf_counter()
        if events is not None:
            events.emit(spans.BATCH_BEGIN, cells=len(items), workers=self.workers)
            for index in range(len(items)):
                events.emit(spans.SUBMIT, cell=index, label=events.label(index))
        try:
            if self.workers == 1 or len(items) <= 1:
                outcomes = _run_chunk(fn, items, events)
            else:
                outcomes = self._map_pool(fn, items, events)
        except BaseException:
            if events is not None:
                events.emit(spans.BATCH_END, error=True)
            raise
        stats = self.last_stats = ExecutionStats(
            workers=self.workers,
            wall_time=time.perf_counter() - start,
            cell_times=[elapsed for _, elapsed in outcomes],
        )
        if events is not None:
            events.emit(
                spans.BATCH_END, cells=stats.cell_count,
                wall_time=stats.wall_time,
            )
        return [result for result, _ in outcomes]

    def _map_pool(
        self,
        fn: Callable[[T], R],
        items: List[T],
        events: Optional[_BatchEvents],
    ) -> List[Tuple[R, float]]:
        """Fan chunks out over a process pool; outcomes in input order."""
        chunks = self._chunks(items)
        with contextlib.ExitStack() as stack:
            notices = None
            if events is not None:
                # A Manager queue (unlike a raw mp.Queue) pickles as a
                # pool-task argument; the drain thread stamps what the
                # workers put on it. Exits after the pool, so every
                # notice is stamped before the batch ends.
                manager = stack.enter_context(multiprocessing.Manager())
                notices = stack.enter_context(
                    drained(manager.Queue(), events.put)
                )
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(self.workers, len(chunks)))
            )
            futures = []
            base_index = 0
            for chunk in chunks:
                futures.append(
                    pool.submit(_run_chunk, fn, chunk, notices, base_index)
                )
                base_index += len(chunk)
            # Collect in submission order: results are positionally
            # stable regardless of which worker finishes first.
            return [
                outcome for future in futures for outcome in future.result()
            ]

    def run_simulations(
        self,
        configs: Sequence[SimulationConfig],
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> List[SimulationResult]:
        """Run one simulation per config (the common experiment cell).

        With :attr:`checkpoint_dir` set, every cell runs under periodic
        checkpointing in its own ``cell-NNNN/`` subdirectory (numbered
        in submission order, which is deterministic for a given batch) —
        completed cells are reloaded and interrupted ones resumed when
        the same batch is rerun over the same directory.

        The batch executes on :attr:`backend` — results are
        bit-identical whichever backend (and however many workers or
        hosts) ran it.
        """
        return self.backend.run_simulations(self, configs, labels)

    def dispatch_info(self):
        """Manifest-ready dispatch description of the last remote batch.

        ``None`` under the local backend — local manifests are exactly
        what they were before backends existed.
        """
        info = getattr(self.backend, "dispatch_info", None)
        return info() if info is not None else None

    def _run_simulations_local(
        self,
        configs: Sequence[SimulationConfig],
        labels: Optional[Sequence[Optional[str]]] = None,
    ) -> List[SimulationResult]:
        """The local (serial / process-pool) simulation batch path."""
        if self.checkpoint_dir is None:
            # functools.partial of a module-level function pickles into
            # worker processes; a lambda would not.
            cell = functools.partial(
                run_simulation, engine_mode=self.engine_mode
            )
            return self.map(cell, configs, labels=labels)
        from .checkpointing import make_cell_task, run_checkpointed_cell

        tasks = [
            make_cell_task(
                config,
                self.checkpoint_dir / f"cell-{index:04d}",
                self.checkpoint_every,
                self.engine_mode,
            )
            for index, config in enumerate(configs)
        ]
        return self.map(run_checkpointed_cell, tasks, labels=labels)

    def __repr__(self) -> str:
        return (
            f"<ParallelExecutor workers={self.workers} "
            f"chunk_size={self.chunk_size} backend={self.backend.name}>"
        )
