"""The hybrid fluid/event fast-forward engine mode.

:class:`FastForwardEnvironment` is a drop-in :class:`~repro.sim.engine.
Environment` that batch-advances *quiescent* stretches of a run without
pumping every sleep through the generator machinery. The observation it
exploits: between scheduler decision points (monitor windows, estimator
collections, alarms) the web-server model is already fluid, so a client's
think-sleep/page-burst cycle is a pure function of the heap time, the
workload RNG streams and the per-server fluid state — none of which any
*pending* event can change out from under it.

Quiescence criterion
--------------------
A heap entry is quiescent exactly when it is a registered *fluid task*
(see :class:`FluidTask`): a native stepper whose dispatch (a) only
mutates state through the same synchronous calls the reference generator
would make, in the same order, and (b) cannot observe or mutate
scheduler/alarm/DNS decision state asynchronously — every such mutation
in this codebase happens *inside* some dispatch, never between them.
Model code opts a client shape in only when its whole per-wake body can
be mirrored exactly (see :mod:`repro.workload.fluid` for the eligibility
gate); everything else — monitor and estimator processes, shared
events, failed events — takes the reference dispatch path of
:meth:`~repro.sim.engine.Environment.run`, verbatim.

Equivalence guarantee
---------------------
The fast mode is **bit-identical** to the reference engine: same eid
allocation order, same heap keys, same RNG consumption (stream and draw
order), same float operation order — therefore the same trajectory, the
same checkpoint digests and the same results. The proof obligations are
pinned by the golden-trajectory fixture and the Hypothesis equivalence
harness (``tests/property/test_prop_fastforward_equivalence.py``): any
drift between a fluid task and the generator it mirrors fails those
suites as a trajectory diff.

Fallback
--------
Configurations a fluid task cannot mirror exactly (dynamic domain
remapping, client-side address caching, geographic RTT accounting,
non-standard session distributions) *fall back* to reference
event-stepping inside the same environment: the model simply spawns its
usual generator processes, and each fallback reason is counted in
:attr:`FastForwardEnvironment.fallback_reasons`. The counters are
surfaced through the run's provenance manifest — deliberately **not**
through the digested metrics registry, so checkpoint digests and
``repro report --compare`` stay mode-agnostic.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, Optional, Type

from ..errors import SimulationError
from .engine import Environment
from .events import Timeout

_INFINITY = float("inf")


class FluidTask:
    """Base class for native fast-forward steppers (quiescent entries).

    A fluid task sits directly on the environment's heap (third tuple
    element, where the reference engine keeps an
    :class:`~repro.sim.events.Event`) and is dispatched by calling
    :meth:`step` instead of resuming a generator. Subclasses carry the
    determinism contract of this module: :meth:`step` must perform the
    byte-exact work of the generator wake it replaces — same eid
    allocations, same RNG draws, same float operations, in the same
    order — which the golden-trajectory and Hypothesis equivalence
    suites enforce.
    """

    __slots__ = ()

    #: Fluid tasks model endless client loops; they never terminate, so
    #: liveness censuses (checkpoint digests) see the same count the
    #: reference generators report.
    is_alive = True

    @classmethod
    def drain(cls, env, queue, target: float, budget: int = -1) -> None:
        """Dispatch consecutive ``cls`` heap-top entries natively.

        The whole quiescent-window drain lives in this one classmethod
        so the per-wake cost is straight-line loop body, not a function
        call per event. Must process heap-top entries while they are
        instances of ``cls`` with time ``<= target`` (and while
        ``budget`` wakes remain; negative = unlimited), performing for
        each the byte-exact work of the generator wake it replaces and
        swapping the task's next entry in with ``heapreplace`` — built
        with the exact eid/heap-key arithmetic of
        :func:`~repro.sim.events.timeout_factory`. One sift where
        pop-then-push pays two; heap pop order is a pure function of
        the entry keys (totally ordered by the unique eid tiebreak), so
        the internal array-layout difference can never reorder
        dispatches. Returns when the top entry is foreign, late, or the
        budget is spent.

        A task may instead keep its scheduled entries off the heap, on a
        :class:`WakeCalendar` behind one head entry whose ``(time, key)``
        is always the calendar's earliest (the sharded population and
        the trace source do). Its drain then stops at the earliest
        foreign entry — the smaller child of the heap root, which no
        fluid wake can change, since none pushes onto the heap — and
        re-keys the head on exit. On every exit, budget stops included,
        ``env._off_heap`` counts the entries held off the heap: all the
        calendar holds but the one the head stands for. The count is
        constant when each dispatched entry files one successor, and
        moves when a wake files none or two.
        :attr:`FastForwardEnvironment.dispatched` subtracts it, so
        dispatch counts and checkpoint positions stay those of the
        reference engine.
        """
        raise NotImplementedError


#: Mean wakes per calendar bucket. A bucket ``BUCKET_WAKES / wake_rate``
#: seconds wide holds about this many entries, so the near run a drain
#: reads from stays small whatever the number of pending wakes.
BUCKET_WAKES = 128


class WakeCalendar:
    """Fast-lane wakes held off the engine heap, in time buckets.

    Entries are ``(time, key, slot)`` tuples with the engine's heap-key
    arithmetic; ``slot`` names the wake to its population. An entry is
    filed in bucket ``int(time * inv_width)``: :attr:`buckets` maps a
    bucket index to its unsorted list and :attr:`pending` is a heap of
    the filed indices. The current bucket :attr:`cur` is the *near run*
    :attr:`near`, sorted once when it is loaded and read by index from
    :attr:`pos`; an entry filed into it later is placed by
    ``bisect.insort`` (always past ``pos``: it is later than the entry
    being dispatched). Bucket indices are monotone in time and equal
    times share a bucket, so entries leave in the engine's ``(time,
    key)`` order.

    The engine heap holds one head entry for the whole calendar, keyed
    as its earliest entry. A drain hoists the fields into locals, files
    each wake inline (the ``b == cur`` test, then ``insort`` or the
    bucket append) and calls :meth:`advance` when the near run is
    spent; :meth:`bound` and :meth:`rekey` are its entry and exit.
    :attr:`held` counts the entries the calendar stands for.
    """

    __slots__ = ("inv_width", "buckets", "pending", "near", "pos", "cur", "held")

    def __init__(self, wake_rate: float):
        #: Buckets per second: ``BUCKET_WAKES`` expected wakes each.
        self.inv_width = wake_rate / BUCKET_WAKES
        self.buckets: Dict[int, list] = {}
        self.pending: list = []
        self.near: list = []
        self.pos = 0
        self.cur: Optional[int] = None
        self.held = 0

    def file(self, entry: tuple) -> None:
        """File one entry (the drains inline this)."""
        b = int(entry[0] * self.inv_width)
        if b == self.cur:
            insort(self.near, entry, self.pos)
        else:
            try:
                self.buckets[b].append(entry)
            except KeyError:
                self.buckets[b] = [entry]
                heapq.heappush(self.pending, b)
        self.held += 1

    def push_head(self, env, head) -> None:
        """Load the first bucket and push ``head`` keyed as its earliest entry.

        Adds the :attr:`held` entries but the head's to ``env._off_heap``.
        """
        self.cur, self.near = self.advance()
        self.pos = 0
        top = self.near[0]
        heapq.heappush(env._queue, (top[0], top[1], head))
        env._off_heap += self.held - 1

    def advance(self):
        """Load the earliest filed bucket; returns ``(cur, near)``.

        The drain calls this when its near run is spent and restarts
        reading at index 0; :meth:`rekey` stores its position.
        """
        cur = heapq.heappop(self.pending)
        near = self.buckets.pop(cur)
        near.sort()
        return cur, near

    @staticmethod
    def bound(queue) -> tuple:
        """``(time, key)`` of the earliest foreign entry on ``queue``.

        The head is the heap root, so the next entry is the smaller of
        its children, and no fluid wake pushes onto the heap to change
        it during a drain. An entry ``(now, key)`` is due before it iff
        ``(now, key) < (time, key)``.
        """
        size = len(queue)
        if size > 2:
            first = queue[1]
            second = queue[2]
            foreign = first if first < second else second
        elif size == 2:
            foreign = queue[1]
        else:
            return _INFINITY, 0
        return foreign[0], foreign[1]

    def rekey(self, env, queue, head, cur, near, pos, held) -> None:
        """Store a drain's position and re-key ``head`` as the earliest entry.

        Sets ``env._off_heap`` from the change in :attr:`held`: the
        calendar stands for ``held`` entries and the head for one.
        """
        self.cur = cur
        self.near = near
        self.pos = pos
        env._off_heap += held - self.held
        self.held = held
        top = near[pos]
        heapq.heapreplace(queue, (top[0], top[1], head))


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


class FastForwardEnvironment(Environment):
    """An :class:`~repro.sim.engine.Environment` with a fast-forward lane.

    Determinism contract: identical to the base environment, bit for
    bit. :meth:`step` remains the reference single-event semantics
    (tests and checkpoint cuts use it); :meth:`run` performs the same
    dispatch inline. Registered fluid-task entries are stepped natively;
    every other entry takes the reference path unchanged, so an
    environment with no registered tasks *is* the reference engine.
    """

    __slots__ = ("_task_class", "fallback_reasons", "_off_heap")

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        #: The registered fluid-task class (pointer-compared on dispatch).
        self._task_class: Type = _NoTask
        #: Scheduled entries fluid tasks hold off the heap (see
        #: :meth:`FluidTask.drain`); :attr:`dispatched` subtracts them.
        self._off_heap = 0
        #: Counted reasons why model components declined the fast lane
        #: (``reason -> count``). Surfaced via the provenance manifest,
        #: never via the digested metrics registry — digests must be
        #: mode-agnostic.
        self.fallback_reasons: Dict[str, int] = {}

    # -- fast-lane registration -------------------------------------------

    def register_task_class(self, task_class: Type[FluidTask]) -> None:
        """Register the concrete :class:`FluidTask` subclass to dispatch.

        One task class per environment: the dispatch check must stay a
        single pointer comparison. Registering the same class twice is a
        no-op; registering a second class is an error.
        """
        if self._task_class is task_class:
            return
        if self._task_class is not _NoTask:
            raise ValueError(
                f"a fluid task class is already registered "
                f"({self._task_class.__name__}); cannot also register "
                f"{task_class.__name__}"
            )
        self._task_class = task_class

    def count_fallback(self, reason: str) -> None:
        """Record one occurrence of a fast-forward fallback ``reason``."""
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    @property
    def fast_forward_active(self) -> bool:
        """``True`` once a fluid task class has been registered."""
        return self._task_class is not _NoTask

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far.

        As :attr:`Environment.dispatched`, counting the entries fluid
        tasks hold off the heap (``_off_heap``, which each calendar
        drain updates on exit as its held count rises and falls) as
        still scheduled.
        """
        return self._eid - len(self._queue) - self._off_heap

    # -- dispatch ----------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled entry (reference semantics).

        Identical to :meth:`Environment.step` except that a registered
        fluid-task entry is stepped natively (a budget-1
        :meth:`FluidTask.drain`) — which is, by the :class:`FluidTask`
        contract, the same work the reference generator dispatch would
        have performed.
        """
        queue = self._queue
        if queue and type(queue[0][2]) is self._task_class:
            self._now = queue[0][0]
            self._task_class.drain(self, queue, self._now, 1)
            return
        Environment.step(self)

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation (see :meth:`Environment.run`).

        The quiescent-window drain: successive fluid-task entries are
        stepped natively with one type check each — no Timeout
        allocation, no generator frame, no waiter bookkeeping — until a
        non-task entry (a scheduler decision point) surfaces, which is
        dispatched through the reference branches below, verbatim from
        :meth:`Environment.run`. Dispatch order, eid allocation and all
        float arithmetic are bit-identical to the reference engine.
        With no task class registered (a configuration that fell back)
        the run is :meth:`Environment.run` itself, without the per-entry
        task check.
        """
        if self._task_class is _NoTask:
            return super().run(until)
        if until is None:
            target = float("inf")
        else:
            target = float(until)
            if target < self._now:
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
                # Hand the heap to the task class until the top entry
                # is foreign or late: the whole quiescent window drains
                # inside one call, with no per-wake function call. The
                # drain loop heapreplaces each task's next wake against
                # its just-dispatched top entry (see FluidTask.drain
                # for the parity argument). env._now is NOT updated per
                # wake — provably nothing inside a fluid wake reads the
                # clock (every callee takes `now` as a parameter), every
                # reference dispatch below still sets it, and the loop
                # exit sets it to `target`.
                task_drain(self, queue, target)
                continue
            now, _, event = pop(queue)
            self._now = now
            # -- reference dispatch (verbatim from Environment.run) -------
            event._processed = True
            waiter = event._waiter
            if waiter is not None:
                event._waiter = None
                if event._ok:
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
                            next_event._waiter = waiter
                        else:
                            waiter._after_yield(next_event)
                else:
                    waiter._resume(event)
            callbacks = event._callbacks
            if callbacks is not None:
                event._callbacks = None
                for callback in callbacks:
                    callback(event)
        if until is not None:
            self._now = target

    def __repr__(self) -> str:
        task = (
            self._task_class.__name__ if self.fast_forward_active else None
        )
        return (
            f"<FastForwardEnvironment now={self._now!r} "
            f"queued={len(self._queue)} task={task}>"
        )
