"""Deadline-carrying cell leases for the dispatch coordinator.

The coordinator's crash tolerance lives here, in a pure data structure
with no sockets or threads (its single-threaded semantics are what the
unit tests pin; the coordinator serializes access with a lock):

* every un-run cell is *pending*; a worker's request moves one cell to
  *leased* with a monotonic-clock deadline;
* a heartbeat from the lease holder extends the
  deadline — a worker busy on a long cell keeps its lease alive;
* :meth:`expire` returns every overdue lease to the pending pool, and
  :meth:`release_worker` does the same immediately for a worker whose
  connection died;
* the **first** completion of a cell wins: :meth:`complete` records it
  and returns ``True``; a late duplicate (a stalled-but-alive worker
  finishing a cell that was re-leased and already completed elsewhere)
  is dropped with ``False``, so no cell is ever double-counted — in
  results *or* in timing stats.

Re-leasing is safe because a cell is a pure function of its config
(every seed fixed before dispatch) and, under checkpointing, because
:func:`~repro.experiments.checkpointing.run_checkpointed_cell` is
idempotent: the retry reloads or resumes the dead worker's ledger
instead of redoing finished work. Either way the retried result is
bit-identical to what the dead worker would have produced.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple


class LeaseTable:
    """Pending / leased / completed bookkeeping for one batch of cells."""

    def __init__(self, cell_count: int, lease_timeout: float):
        if lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be > 0 seconds, got {lease_timeout!r}"
            )
        self.cell_count = int(cell_count)
        self.lease_timeout = float(lease_timeout)
        #: Cells awaiting a worker, in lease order (re-leased cells are
        #: appended, which only affects scheduling — never results).
        self._pending: Deque[int] = deque(range(cell_count))
        #: cell index -> (worker id, monotonic deadline).
        self._leases: Dict[int, Tuple[str, float]] = {}
        #: cell index -> result payload of the *first* completion.
        self._results: Dict[int, Any] = {}
        #: (cell index, elapsed seconds, worker id) in completion order,
        #: first completion per cell only.
        self.completions: List[Tuple[int, float, str]] = []
        #: Cells that expired or were released at least once (stats).
        self.retried: Dict[int, int] = {}

    # -- queries -------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every cell has a recorded result."""
        return len(self._results) == self.cell_count

    @property
    def completed_count(self) -> int:
        return len(self._results)

    @property
    def pending_count(self) -> int:
        """Cells currently awaiting a worker."""
        return len(self._pending)

    @property
    def leased_count(self) -> int:
        """Cells currently out on a lease."""
        return len(self._leases)

    def attempt(self, index: int) -> int:
        """The attempt number a lease of ``index`` would carry *now*.

        Attempt 0 is the first lease; every expiry or dead-worker
        release increments it — so the value equals the cell's retry
        count, and ``(cell, attempt)`` uniquely names one lease for the
        span layer.
        """
        return self.retried.get(index, 0)

    def results_in_order(self) -> List[Any]:
        """Result payloads in submission (index) order; batch must be done."""
        if not self.done:
            missing = sorted(set(range(self.cell_count)) - set(self._results))
            raise ValueError(f"batch incomplete; missing cells {missing}")
        return [self._results[index] for index in range(self.cell_count)]

    def holder(self, index: int) -> Optional[str]:
        """Worker currently holding the lease on ``index``, if any."""
        lease = self._leases.get(index)
        return lease[0] if lease is not None else None

    def completed(self, index: int) -> bool:
        """Whether ``index`` already has a recorded result."""
        return index in self._results

    # -- transitions ---------------------------------------------------------

    def lease(self, worker: str, now: Optional[float] = None) -> Optional[int]:
        """Lease the next pending cell to ``worker``; ``None`` if none."""
        now = time.monotonic() if now is None else now
        self.expire(now)
        if not self._pending:
            return None
        index = self._pending.popleft()
        self._leases[index] = (worker, now + self.lease_timeout)
        return index

    def heartbeat(
        self, index: int, worker: str, now: Optional[float] = None
    ) -> bool:
        """Extend ``worker``'s lease on ``index``; ``False`` if not held."""
        now = time.monotonic() if now is None else now
        lease = self._leases.get(index)
        if lease is None or lease[0] != worker:
            return False
        self._leases[index] = (worker, now + self.lease_timeout)
        return True

    def complete(
        self, index: int, worker: str, payload: Any, elapsed: float
    ) -> bool:
        """Record a completion; ``True`` only for the cell's first one."""
        if not 0 <= index < self.cell_count:
            raise ValueError(f"cell index {index} out of range")
        self._leases.pop(index, None)
        # A re-leased copy of this cell may still sit in the pending
        # queue (completion raced the expiry sweep); drop it.
        if index in self._pending:
            self._pending.remove(index)
        if index in self._results:
            return False
        self._results[index] = payload
        self.completions.append((index, float(elapsed), worker))
        return True

    def expire(self, now: Optional[float] = None) -> List[int]:
        """Return overdue leases to the pending pool; lists the cells."""
        return [index for index, _, _ in self.expire_details(now)]

    def expire_details(
        self, now: Optional[float] = None
    ) -> List[Tuple[int, str, int]]:
        """:meth:`expire`, but listing ``(cell, holder, attempt)``.

        ``attempt`` is the number of the lease being terminated (the
        value :meth:`attempt` returned when it was granted) — what the
        span layer stamps on its ``expire`` events.
        """
        now = time.monotonic() if now is None else now
        expired = [
            (index, holder)
            for index, (holder, deadline) in self._leases.items()
            if deadline <= now
        ]
        return [self._repool(index, holder) for index, holder in expired]

    def release_worker(self, worker: str) -> List[int]:
        """Re-pool every lease ``worker`` holds (its connection died)."""
        return [index for index, _, _ in self.release_details(worker)]

    def release_details(self, worker: str) -> List[Tuple[int, str, int]]:
        """:meth:`release_worker`, listing ``(cell, holder, attempt)``."""
        released = [
            index
            for index, (holder, _) in self._leases.items()
            if holder == worker
        ]
        return [self._repool(index, worker) for index in released]

    def _repool(self, index: int, holder: str) -> Tuple[int, str, int]:
        """Terminate one lease, re-queue its cell, bump its retry count."""
        attempt = self.retried.get(index, 0)
        del self._leases[index]
        self._pending.append(index)
        self.retried[index] = attempt + 1
        return index, holder, attempt

    def __repr__(self) -> str:
        return (
            f"<LeaseTable {self.completed_count}/{self.cell_count} done, "
            f"{len(self._leases)} leased, {len(self._pending)} pending>"
        )
