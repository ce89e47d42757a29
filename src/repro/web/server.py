"""The fluid web-server model.

The paper abstracts each web server to a capacity ``C_i`` expressed in
hits per second and evaluates policies by windowed server *utilization*.
We realize that abstraction with a work-conserving fluid queue:

* a page burst of ``h`` hits arriving at time ``t`` adds ``h / C_i``
  seconds of backlog;
* backlog drains at rate 1 (the server works whenever backlog > 0);
* the utilization of a measurement window is the fraction of the window
  the server was busy.

This gives O(1) work per page burst — essential for the paper's 5-hour
runs with hundreds of thousands of pages — while preserving exactly the
quantity the paper measures. The server also keeps per-domain hit
counters that feed the hidden-load estimator, mirroring the paper's
"servers keep track of the number of incoming requests from each domain".

Pending runs. A server's floats depend only on its own sequence of
bursts, so bursts offered to different servers commute. The fast-lane
drains exploit that: instead of calling :meth:`WebServer.offer` per
page, they append ``(time, hits, domain_id)`` to the target server's
:attr:`~WebServer.pending` run, and :meth:`WebServer.offer_run` applies
the run in one loop with :meth:`~WebServer.offer`'s arithmetic in the
same operation order. Every public reader of the server's state —
:attr:`~WebServer.backlog_seconds`, :meth:`~WebServer.utilization`,
:meth:`~WebServer.offered_load`, :meth:`~WebServer.end_window`,
:meth:`~WebServer.drain_domain_hits` and
:meth:`~WebServer.snapshot_state` — applies the pending run first, and
every drain applies all runs on exit and every :data:`RUN_WAKES` wakes
(:func:`apply_runs`). An observer therefore sees exactly the state the
per-page calls would have left.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigurationError, SimulationError
from ..sim.stats import RunningStats as _ResponseStats

#: Wakes a fast-lane drain may buffer in pending runs before it applies
#: them (:func:`apply_runs`): long enough that a run amortizes its
#: method call, short enough that a segment of 10^5 clients does not
#: buffer hundreds of thousands of bursts.
RUN_WAKES = 2048


def apply_runs(servers) -> None:
    """Apply every pending run of ``servers`` (see the module docstring)."""
    for server in servers:
        if server.pending:
            server.offer_run()


class WebServer:
    """One heterogeneous web server (fluid model; see module docstring).

    Parameters
    ----------
    server_id:
        Index of the server within the cluster (0 = most powerful).
    capacity:
        Absolute capacity ``C_i`` in hits per second.
    """

    __slots__ = (
        "server_id",
        "capacity",
        "_backlog",
        "_last_update",
        "_busy_in_window",
        "_window_start",
        "_hits_in_window",
        "domain_hits",
        "total_hits",
        "total_pages",
        "response_times",
        "pending",
    )

    def __init__(self, server_id: int, capacity: float):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity!r}")
        self.server_id = server_id
        self.capacity = float(capacity)
        self._backlog = 0.0  # seconds of work outstanding
        self._last_update = 0.0
        self._busy_in_window = 0.0
        self._window_start = 0.0
        self._hits_in_window = 0
        #: Hits received per source domain since the last estimator
        #: collection (drained by :meth:`drain_domain_hits`).
        self.domain_hits: Dict[int, int] = {}
        self.total_hits = 0
        self.total_pages = 0
        #: Streaming statistics over per-page response times (seconds):
        #: the fluid sojourn time of each page burst, i.e. the backlog
        #: found on arrival plus the burst's own service demand.
        self.response_times = _ResponseStats()
        #: Page bursts ``(time, hits, domain_id)`` appended by a
        #: fast-lane drain and not yet applied (see the module
        #: docstring). The list object is never replaced: drains keep
        #: its bound ``append`` across calls.
        self.pending: List[Tuple[float, int, int]] = []

    # -- fluid dynamics --------------------------------------------------

    def _advance(self, now: float) -> None:
        """Drain backlog up to time ``now``, accruing busy time."""
        if now < self._last_update:
            raise SimulationError(
                f"time went backwards: {now!r} < {self._last_update!r}"
            )
        elapsed = now - self._last_update
        busy = min(self._backlog, elapsed)
        self._backlog -= busy
        self._busy_in_window += busy
        self._last_update = now

    def offer(self, now: float, hits: int, domain_id: int) -> None:
        """Accept a page burst of ``hits`` hits from ``domain_id``.

        The per-page entry point of event mode and of the fallback
        configurations: :meth:`_advance` is inlined here (same
        arithmetic, same operation order) and the backlog is threaded
        through one local instead of repeated slot reads. It must not be
        called while a run is pending; the fast-lane drains, which
        buffer runs, apply them before they return.
        :meth:`offer_run` is the batched copy of this body, pinned to it
        by ``tests/property/test_prop_offer_run.py``.
        """
        if hits <= 0:
            raise SimulationError(f"a page burst must have >= 1 hit, got {hits!r}")
        last = self._last_update
        if now < last:
            raise SimulationError(f"time went backwards: {now!r} < {last!r}")
        backlog = self._backlog
        elapsed = now - last
        busy = backlog if backlog <= elapsed else elapsed
        backlog -= busy
        self._busy_in_window += busy
        self._last_update = now
        service = hits / self.capacity
        # Fluid sojourn time: the work queued ahead of this burst plus its
        # own service demand (FIFO drain at unit rate). The accumulator
        # update is RunningStats.add verbatim (same operation order, so
        # identical floats) inlined to skip a method call per page.
        stats = self.response_times
        sojourn = backlog + service
        stats.count = count = stats.count + 1
        delta = sojourn - stats._mean
        stats._mean = mean = stats._mean + delta / count
        stats._m2 += delta * (sojourn - mean)
        if sojourn < stats.minimum:
            stats.minimum = sojourn
        if sojourn > stats.maximum:
            stats.maximum = sojourn
        self._backlog = backlog + service
        self._hits_in_window += hits
        self.total_hits += hits
        self.total_pages += 1
        domain_hits = self.domain_hits
        domain_hits[domain_id] = domain_hits.get(domain_id, 0) + hits

    def offer_run(self) -> None:
        """Apply the :attr:`pending` run, in order, and empty it.

        Equivalent to one :meth:`offer` per burst — the same checks and
        the same float operations in the same order, so every field ends
        bit-identical — but the state lives in locals for the whole run
        and the integer counters are summed once. A burst that fails a
        check raises :class:`SimulationError` as :meth:`offer` would,
        with the bursts before it applied; the rest of the run is
        dropped.
        """
        run = self.pending
        capacity = self.capacity
        last = self._last_update
        backlog = self._backlog
        busy_total = self._busy_in_window
        stats = self.response_times
        count = stats.count
        mean = stats._mean
        m2 = stats._m2
        minimum = stats.minimum
        maximum = stats.maximum
        domain_hits = self.domain_hits
        hits_total = 0
        try:
            for now, hits, domain_id in run:
                if hits <= 0 or now < last:
                    if hits <= 0:
                        raise SimulationError(
                            f"a page burst must have >= 1 hit, got {hits!r}"
                        )
                    raise SimulationError(
                        f"time went backwards: {now!r} < {last!r}"
                    )
                elapsed = now - last
                busy = backlog if backlog <= elapsed else elapsed
                backlog -= busy
                busy_total += busy
                last = now
                service = hits / capacity
                # offer's sojourn and new backlog are one sum, computed once.
                backlog = sojourn = backlog + service
                count += 1
                delta = sojourn - mean
                mean = mean + delta / count
                m2 += delta * (sojourn - mean)
                if sojourn < minimum:
                    minimum = sojourn
                if sojourn > maximum:
                    maximum = sojourn
                hits_total += hits
                # Integer-only bookkeeping: try/except inserts the keys in
                # the order .get would, without a call per burst.
                try:
                    domain_hits[domain_id] += hits
                except KeyError:
                    domain_hits[domain_id] = hits
        finally:
            run.clear()
            self.total_pages += count - stats.count
            self._last_update = last
            self._backlog = backlog
            self._busy_in_window = busy_total
            stats.count = count
            stats._mean = mean
            stats._m2 = m2
            stats.minimum = minimum
            stats.maximum = maximum
            self._hits_in_window += hits_total
            self.total_hits += hits_total

    # -- measurement -----------------------------------------------------

    @property
    def backlog_seconds(self) -> float:
        """Outstanding work, in seconds at full rate (as of last update)."""
        if self.pending:
            self.offer_run()
        return self._backlog

    def utilization(self, now: float) -> float:
        """Busy fraction of the current window ``[window_start, now]``."""
        if self.pending:
            self.offer_run()
        self._advance(now)
        width = now - self._window_start
        if width <= 0:
            return 1.0 if self._backlog > 0 else 0.0
        return self._busy_in_window / width

    def offered_load(self, now: float) -> float:
        """Arrived work / capacity over the current window (may exceed 1)."""
        if self.pending:
            self.offer_run()
        width = now - self._window_start
        if width <= 0:
            return 0.0
        return self._hits_in_window / (self.capacity * width)

    def end_window(self, now: float) -> float:
        """Close the current measurement window and start a new one.

        Returns the utilization (busy fraction) of the closed window.
        """
        utilization = self.utilization(now)
        self._busy_in_window = 0.0
        self._hits_in_window = 0
        self._window_start = now
        return utilization

    def drain_domain_hits(self) -> Dict[int, int]:
        """Per-domain hit counts since last drain; resets the counters."""
        if self.pending:
            self.offer_run()
        drained, self.domain_hits = self.domain_hits, {}
        return drained

    def snapshot_state(self) -> Dict:
        """Every mutable fluid/accounting field (for checkpoints)."""
        if self.pending:
            self.offer_run()
        return {
            "server_id": self.server_id,
            "backlog": self._backlog,
            "last_update": self._last_update,
            "busy_in_window": self._busy_in_window,
            "window_start": self._window_start,
            "hits_in_window": self._hits_in_window,
            "domain_hits": {
                str(domain): hits
                for domain, hits in sorted(self.domain_hits.items())
            },
            "total_hits": self.total_hits,
            "total_pages": self.total_pages,
            "response_times": self.response_times.snapshot_state(),
        }

    def __repr__(self) -> str:
        return (
            f"<WebServer id={self.server_id} capacity={self.capacity:.4g} "
            f"backlog={self._backlog:.4g}s>"
        )
