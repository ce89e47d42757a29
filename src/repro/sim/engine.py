"""The discrete-event simulation engine.

:class:`Environment` owns the simulation clock and the event queue and is
the factory for all simulation primitives (events, timeouts, processes).
It replaces the proprietary CSIM package the paper used: the model code
only relies on process-oriented semantics (spawn a process, sleep for a
simulated delay, wait for an event), which this engine provides.

Determinism
-----------
Events scheduled for the same simulation time are processed in
(priority, insertion order), so two runs of the same seeded model produce
identical trajectories — a property the test suite verifies, the
experiment harness relies on, and the golden-trajectory regression test
(``tests/integration/test_golden_trajectory.py``) pins bit-for-bit
across engine rewrites.

Performance
-----------
:meth:`Environment.run` is the engine's one dispatch loop, serving both
engine modes. It peeks the heap top, stops past the target, hands an
entry of the registered fast-lane task class to that class's ``drain``
(see :mod:`repro.sim.fastforward`), and otherwise pops the entry and
dispatches it inline over local bindings of the heap and clock. The
dominant event shape — a process sleeping on a
:class:`~repro.sim.events.Timeout` nothing else waits on — is resumed
inline without allocating a callbacks list or paying a
:meth:`~repro.sim.process.Process._resume` call. With no task class
registered (the event engine) the task check is one pointer comparison
against :class:`_NoTask` per event. :meth:`step` remains the
single-stepping entry point for tests and checkpoint cuts and performs
the exact same dispatch in the exact same order. See
``docs/PERFORMANCE.md``, *Engine internals*.
"""

from __future__ import annotations

import heapq
from typing import Generator, List, Optional, Tuple

from ..errors import SimulationError
from .events import (
    _PRIORITY_SHIFT,
    PRIORITY_NORMAL,
    Event,
    Timeout,
    timeout_factory,
)
from .process import Process

_INFINITY = float("inf")


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class _NoTask:
    """Placeholder task class: matches no heap entry.

    ``type(event) is self._task_class`` must be a single pointer
    comparison on the hot path, so "no tasks registered" is expressed as
    a class no event can be an instance of rather than ``None``.
    """

    __slots__ = ()

    @classmethod
    def drain(cls, env, queue, target, budget=-1):  # pragma: no cover
        """Never called: no heap entry can match the placeholder class."""
        raise AssertionError("placeholder task class is never dispatched")


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).

    Attributes
    ----------
    timeout:
        Factory for :class:`~repro.sim.events.Timeout` events —
        ``env.timeout(delay, value=None)``. Bound per instance to the
        closure built by :func:`~repro.sim.events.timeout_factory`,
        which constructs the identical event without the
        ``type.__call__`` dispatch — the hottest allocation site in any
        run.
    """

    __slots__ = ("_now", "_queue", "_eid", "timeout", "_task_class", "_off_heap")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        if not -_INFINITY < self._now < _INFINITY:
            raise SimulationError(
                f"initial_time must be finite, got {initial_time!r}"
            )
        #: Heap of ``(time, priority << shift | eid, event)`` entries.
        self._queue: List[Tuple[float, int, Event]] = []
        self._eid = 0
        # One sleep per client think time makes `timeout` the
        # most-called factory in a run; see timeout_factory.
        self.timeout = timeout_factory(self)
        #: The fast-lane task class :meth:`run` and :meth:`step` hand
        #: heap entries to (pointer-compared on dispatch); only
        #: :class:`~repro.sim.fastforward.FastForwardEnvironment`
        #: registers one.
        self._task_class = _NoTask
        #: Scheduled entries fast-lane tasks hold off the heap (see
        #: :meth:`~repro.sim.fastforward.FluidTask.drain`);
        #: :attr:`dispatched` subtracts them.
        self._off_heap = 0

    # -- clock and queue -------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Enqueue ``event`` to be processed after ``delay`` time units.

        ``delay`` must produce a finite time: a NaN-timed entry would
        poison the heap's ordering (every comparison against NaN is
        false), silently corrupting dispatch order for *all* events.
        """
        time = self._now + delay
        if not -_INFINITY < time < _INFINITY:
            raise SimulationError(
                f"cannot schedule {event!r} at non-finite time {time!r} "
                f"(delay {delay!r})"
            )
        self._eid += 1
        heapq.heappush(
            self._queue, (time, (priority << _PRIORITY_SHIFT) | self._eid, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else _INFINITY

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far.

        Derived as *scheduled minus still-queued*: events only ever
        leave the heap by being dispatched (there is no cancellation
        path), so this needs no counter on the hot dispatch loop. The
        entries fast-lane tasks hold off the heap (``_off_heap``, which
        each calendar drain updates on exit) count as still queued.
        Checkpoints record it as the exact replay position of a cut.
        """
        return self._eid - len(self._queue) - self._off_heap

    def step(self) -> None:
        """Process the next scheduled event.

        A registered fast-lane task entry is stepped natively (a
        budget-1 :meth:`~repro.sim.fastforward.FluidTask.drain`), which
        by the task contract is the same work the reference generator
        dispatch would have performed.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        queue = self._queue
        if queue and type(queue[0][2]) is self._task_class:
            self._now = queue[0][0]
            self._task_class.drain(self, queue, self._now, 1)
            return
        try:
            self._now, _, event = heapq.heappop(queue)
        except IndexError:
            raise EmptySchedule("no scheduled events left") from None
        event._processed = True
        # The waiter (if any) registered before any callback could be
        # appended, so resuming it first preserves registration order.
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        callbacks = event._callbacks
        if callbacks is not None:
            event._callbacks = None
            for callback in callbacks:
                callback(event)

    def run_events(self, count: int, until: Optional[float] = None) -> int:
        """Dispatch at most ``count`` events through :meth:`step`.

        Stops early when the queue drains or (with ``until``) when the
        next event lies beyond ``until`` — the clock is then *not*
        advanced to ``until``, so a later ``run(until=...)`` continues
        the exact same trajectory. Returns the number of events
        dispatched. This is the cut primitive of the checkpoint/resume
        test harness: ``run_events(n)`` followed by ``run(until=T)``
        must be bit-identical to ``run(until=T)`` alone, for every n
        (:meth:`step` is the reference dispatch the inlined ``run`` loop
        mirrors).
        """
        if count < 0:
            raise SimulationError(f"count must be >= 0, got {count!r}")
        target = _INFINITY if until is None else float(until)
        dispatched = 0
        queue = self._queue
        while dispatched < count and queue and queue[0][0] <= target:
            self.step()
            dispatched += 1
        return dispatched

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is then
            set exactly to ``until``). ``None`` runs until the event
            queue drains. A target before the clock, or NaN, raises
            :class:`~repro.errors.SimulationError`.

        This is the engine's hot loop: it performs the same dispatch as
        :meth:`step` in the same order, but inline over local bindings.
        An entry of the registered task class hands the heap to
        ``task_class.drain`` until the top entry is foreign or late: the
        whole quiescent window drains inside one call, with no Timeout,
        generator frame or waiter bookkeeping per wake. Every other
        entry takes the reference dispatch, which resumes a sole-waiting
        process directly — for the dominant sleep-on-a-Timeout shape
        that means one generator ``send`` with no intermediate Python
        frame and no allocation beyond the Timeout and its heap entry.
        :meth:`Process._resume` remains the reference implementation;
        every branch here mirrors it exactly.
        """
        if until is None:
            target = _INFINITY
        else:
            target = float(until)
            # Written so that NaN fails too: no comparison with NaN holds.
            if not target >= self._now:
                raise SimulationError(
                    f"cannot run until {target!r}: already at {self._now!r}"
                )
        queue = self._queue
        pop = heapq.heappop
        task_class = self._task_class
        task_drain = task_class.drain
        while queue:
            item = queue[0]
            now = item[0]
            if now > target:
                break
            event = item[2]
            if type(event) is task_class:
                # The drain heapreplaces each task's next wake against
                # its just-dispatched top entry (see FluidTask.drain for
                # the parity argument). self._now is NOT updated per
                # wake — provably nothing inside a fast-lane wake reads
                # the clock (every callee takes `now` as a parameter),
                # every reference dispatch below still sets it, and the
                # loop exit sets it to `target`.
                task_drain(self, queue, target)
                continue
            pop(queue)
            self._now = now
            event._processed = True
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                if event._ok:
                    # Inlined sole-waiter resume (the sleep fast path).
                    try:
                        next_event = waiter._generator.send(event._value)
                    except BaseException as error:  # incl. StopIteration
                        waiter._terminate(error)
                    else:
                        if (
                            type(next_event) is Timeout
                            and next_event._waiter is None
                            and next_event._callbacks is None
                            and not next_event._processed
                        ):
                            # Fresh sole-waiter sleep: park directly.
                            next_event._waiter = waiter
                        else:
                            waiter._after_yield(next_event)
                else:
                    # Failed event: the full resume takes the throw path.
                    waiter._resume(event)
            callbacks = event._callbacks
            if callbacks is not None:
                event._callbacks = None
                for callback in callbacks:
                    callback(event)
        if until is not None:
            self._now = target

    # -- factories --------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Spawn ``generator`` as a simulation :class:`Process`."""
        return Process(self, generator)

    def __repr__(self) -> str:
        return f"<Environment now={self._now!r} queued={len(self._queue)}>"
