"""The hybrid fluid/event fast-forward engine mode.

:class:`FastForwardEnvironment` is a drop-in :class:`~repro.sim.engine.
Environment` that batch-advances *quiescent* stretches of a run without
pumping every sleep through the generator machinery. The observation it
exploits: between scheduler decision points (monitor windows, estimator
collections, alarms) the web-server model is already fluid, so a client's
think-sleep/page-burst cycle is a pure function of the heap time, the
workload RNG streams and the per-server fluid state — none of which any
*pending* event can change out from under it.

The environment adds no dispatch code of its own:
:meth:`~repro.sim.engine.Environment.run` and
:meth:`~repro.sim.engine.Environment.step` are the one dispatch loop of
both engine modes, and hand every entry of the registered task class to
that class's :meth:`FluidTask.drain`. :class:`FastForwardEnvironment`
only registers the task class and counts fallbacks.

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
events, failed events — takes the reference dispatch branch of the same
:meth:`~repro.sim.engine.Environment.run` loop.

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

from .engine import Environment, _NoTask

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
        :attr:`~repro.sim.engine.Environment.dispatched` subtracts it, so
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


class FastForwardEnvironment(Environment):
    """An :class:`~repro.sim.engine.Environment` with a fast-forward lane.

    Determinism contract: identical to the base environment, bit for
    bit. The dispatch is the base class's: :meth:`step` is the
    reference single-event semantics (tests and checkpoint cuts use it)
    and :meth:`run` performs the same dispatch inline. Registering a
    fluid-task class is what makes this the fast-lane mode: its entries
    are stepped natively, and every other entry takes the reference
    path unchanged, so an environment with no registered tasks *is* the
    reference engine.
    """

    __slots__ = ("fallback_reasons",)

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
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

    #: The one dispatch loop is :meth:`Environment.run`. This alias is
    #: the same function object; only the benchmark's span table needs
    #: it, because it wraps ``run`` through this class's ``__dict__``.
    #: ROADMAP item 1 retires it.
    run = Environment.run

    def __repr__(self) -> str:
        task = (
            self._task_class.__name__ if self.fast_forward_active else None
        )
        return (
            f"<FastForwardEnvironment now={self._now!r} "
            f"queued={len(self._queue)} task={task}>"
        )
