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
* cells that draw the same client workload (a *cohort*, see
  :func:`cohorts`) run as one unit that draws it once and replays it
  under each cell's policy (:mod:`repro.workload.tape`), with results
  bit-identical to running each cell alone;
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
from ..workload.tape import WorkloadTape
from .config import SimulationConfig
from .metrics import SimulationResult
from .simulation import (
    DEFAULT_ENGINE_MODE,
    ENGINE_MODES,
    TAPE_FIELDS,
    Simulation,
    record_tape,
    run_simulation,
)

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


def _run_cells(fn: Callable[[T], R], unit, notices=None) -> List[tuple]:
    """Run one unit's ``(index, item)`` cells in order, timing each.

    Returns ``(index, result, elapsed)`` per cell, ``elapsed`` measured
    around the cell function alone. With ``notices`` (a
    :class:`_BatchEvents`, or a picklable ``multiprocessing.Manager``
    queue drained into one), a ``(kind, cell, worker, elapsed)`` notice
    is put before and after each cell, carrying its submission-order
    index and this process's pid. The notices are pure observation —
    they never touch the cell's work — so results are bit-identical
    with or without them.
    """
    worker = str(os.getpid()) if notices is not None else None
    outcomes = []
    for index, item in unit:
        if notices is not None:
            notices.put((spans.LEASE, index, worker, None))
        start = time.perf_counter()
        result = fn(item)
        elapsed = time.perf_counter() - start
        if notices is not None:
            notices.put((spans.COMPLETE, index, worker, elapsed))
        outcomes.append((index, result, elapsed))
    return outcomes


def _run_chunk(run_unit, chunk, notices=None) -> List[tuple]:
    """Worker entry point: run one chunk of units (see :func:`_run_cells`)."""
    return [outcome for unit in chunk for outcome in run_unit(unit, notices)]


def _run_cohort(engine_mode: str, unit, notices=None) -> List[tuple]:
    """Run one unit of simulation cells: a lone cell or a cohort.

    A cohort's first member pays for the workload pass (its cell time
    includes it); every member then replays the one tape (see
    :mod:`repro.workload.tape`).
    """
    if len(unit) == 1:
        cell = functools.partial(run_simulation, engine_mode=engine_mode)
        return _run_cells(cell, unit, notices)
    tape: Optional[WorkloadTape] = None

    def member(config: SimulationConfig) -> SimulationResult:
        nonlocal tape
        if tape is None:
            tape = record_tape(config)
        return Simulation(config, engine_mode, _tape=tape).run()

    return _run_cells(member, unit, notices)


#: Expected wakes (clients x duration / mean think time) above which a
#: cell runs alone: a tape costs 16 bytes per wake, so this caps it near
#: 64 MiB (a 3600 s fig1 cell's tape holds 120 240 wakes).
MAX_TAPE_WAKES = 1 << 22


def cohort_key(config: SimulationConfig, engine_mode: str) -> Optional[tuple]:
    """The values of :data:`TAPE_FIELDS`, or ``None`` when a cell runs alone.

    A cell runs alone when it is traced, uses the trace source, runs on
    the event engine, has a fast-lane fallback reason
    (:meth:`SimulationConfig.fluid_fallback_reasons`) or would need a
    tape of more than :data:`MAX_TAPE_WAKES` wakes.
    """
    if (
        engine_mode != "fastforward"
        or config.trace
        or config.workload_source != "synthetic"
        or config.fluid_fallback_reasons()
        or config.total_clients * config.duration / config.mean_think_time
        > MAX_TAPE_WAKES
    ):
        return None
    return tuple(getattr(config, name) for name in TAPE_FIELDS)


def cohorts(
    configs: Sequence[SimulationConfig], engine_mode: str, parts: int = 1
) -> List[List[Tuple[int, SimulationConfig]]]:
    """Group a batch's ``(index, config)`` cells into units.

    Cells with equal :func:`cohort_key` form one cohort; every other
    cell is a unit of its own. A cohort is split into at most ``parts``
    contiguous units (one per worker), so a pool still spreads it.
    Units are ordered by their first cell's index.
    """
    groups: dict = {}
    units: List[List[Tuple[int, SimulationConfig]]] = []
    for index, config in enumerate(configs):
        key = cohort_key(config, engine_mode)
        if key is None:
            units.append([(index, config)])
        elif key in groups:
            groups[key].append((index, config))
        else:
            groups[key] = group = [(index, config)]
            units.append(group)
    split = []
    for unit in units:
        count = min(parts, len(unit))
        split.extend(
            unit[len(unit) * part // count : len(unit) * (part + 1) // count]
            for part in range(count)
        )
    split.sort(key=lambda unit: unit[0][0])
    return split


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
        units = [[(index, item)] for index, item in enumerate(items)]
        return self._run_units(
            functools.partial(_run_cells, fn), units, len(items), labels
        )

    def _run_units(
        self,
        run_unit: Callable,
        units: List[list],
        cells: int,
        labels: Optional[Sequence[Optional[str]]],
    ) -> list:
        """Run ``units`` of ``(index, item)`` cells; results in index order.

        A unit is what one serial step or one pool task carries:
        ``run_unit(unit, notices)`` runs its cells and returns
        ``(index, result, elapsed)`` per cell. Span events and
        :attr:`last_stats` stay per cell.
        """
        if labels is not None and len(labels) != cells:
            raise ConfigurationError(
                f"got {len(labels)} labels for {cells} items"
            )
        events = (
            _BatchEvents(self.progress, labels)
            if self.progress is not None else None
        )
        start = time.perf_counter()
        if events is not None:
            events.emit(spans.BATCH_BEGIN, cells=cells, workers=self.workers)
            for index in range(cells):
                events.emit(spans.SUBMIT, cell=index, label=events.label(index))
        try:
            if self.workers == 1 or len(units) <= 1:
                outcomes = _run_chunk(run_unit, units, events)
            else:
                outcomes = self._map_pool(run_unit, units, events)
        except BaseException:
            if events is not None:
                events.emit(spans.BATCH_END, error=True)
            raise
        outcomes.sort(key=lambda outcome: outcome[0])
        stats = self.last_stats = ExecutionStats(
            workers=self.workers,
            wall_time=time.perf_counter() - start,
            cell_times=[elapsed for _, _, elapsed in outcomes],
        )
        if events is not None:
            events.emit(
                spans.BATCH_END, cells=stats.cell_count,
                wall_time=stats.wall_time,
            )
        return [result for _, result, _ in outcomes]

    def _map_pool(
        self,
        run_unit: Callable,
        units: List[list],
        events: Optional[_BatchEvents],
    ) -> List[tuple]:
        """Fan chunks of units out over a process pool."""
        chunks = self._chunks(units)
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
            futures = [
                pool.submit(_run_chunk, run_unit, chunk, notices)
                for chunk in chunks
            ]
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
        """The local (serial / process-pool) simulation batch path.

        Without checkpointing, the cells of each :func:`cohorts` group
        run as one unit that draws their shared client workload once.
        """
        if self.checkpoint_dir is None:
            # functools.partial of a module-level function pickles into
            # worker processes; a closure would not.
            return self._run_units(
                functools.partial(_run_cohort, self.engine_mode),
                cohorts(configs, self.engine_mode, self.workers),
                len(configs),
                labels,
            )
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
