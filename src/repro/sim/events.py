"""Core event primitives for the discrete-event simulation engine.

The engine follows the classic process-interaction style popularized by
CSIM and simpy: an :class:`Event` is a one-shot occurrence that carries a
value (or an exception) and a list of callbacks; a :class:`Timeout` is an
event scheduled to trigger after a simulated delay.

Events move through three states:

``pending``
    Created but not yet scheduled to occur.
``triggered``
    Scheduled on the event queue with a definite value; it will be
    processed when the simulation clock reaches its time.
``processed``
    Its callbacks have run.

Hot-path layout
---------------
The dominant event shape in every paper-length run is a process sleeping
on a :class:`Timeout` nothing else waits on. Two layout decisions keep
that shape allocation-free (see ``docs/PERFORMANCE.md``, *Engine
internals*):

* ``callbacks`` lists are **lazy** — ``_callbacks`` stays ``None`` until
  somebody actually appends a callback (the public :attr:`Event.callbacks`
  property allocates on first access).
* the first waiting :class:`~repro.sim.process.Process` is stored in the
  dedicated ``_waiter`` slot instead of a callbacks list; the dispatch
  loop resumes it directly. Because ``_waiter`` is only ever claimed
  while no callback list exists, dispatching the waiter *before* the
  callbacks list preserves exact registration order.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional

from ..errors import SimulationError

#: Scheduling priorities. Lower values are processed first among events
#: scheduled for the same simulation time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1

_PENDING = object()
_INFINITY = float("inf")

#: Heap entries are ``(time, priority << _PRIORITY_SHIFT | eid, event)``:
#: fusing (priority, eid) into one integer keeps the tuple one element
#: shorter and resolves same-time ties with a single comparison, while
#: ordering exactly as the separate (priority, eid) pair would (eids are
#: sequential and never approach 2**48).
_PRIORITY_SHIFT = 48
_NORMAL_KEY = PRIORITY_NORMAL << _PRIORITY_SHIFT


class Event:
    """A one-shot occurrence that processes may wait for.

    Parameters
    ----------
    env:
        The :class:`~repro.sim.engine.Environment` the event belongs to.
    """

    __slots__ = ("env", "_callbacks", "_waiter", "_value", "_ok", "_processed")

    def __init__(self, env):
        self.env = env
        #: Lazily allocated callback list (``None`` until first use).
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        #: Sole-waiter fast path: the process parked on this event, when
        #: it registered before any callback list existed.
        self._waiter = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state ---------------------------------------------------------

    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """Callables invoked with this event once it is processed.

        Allocated on first access; ``None`` after processing (appending
        then raises, catching late adds).
        """
        if self._processed:
            return None
        cbs = self._callbacks
        if cbs is None:
            cbs = self._callbacks = []
        return cbs

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed.

        Raises :class:`SimulationError` when the event is still pending.
        """
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception), once triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        Waiting processes will see the exception re-raised at their
        ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated ``delay``."""

    __slots__ = ("delay",)

    def __init__(self, env, delay: float, value: Any = None):
        # One comparison rejects negative, NaN (fails both bounds) and
        # infinite delays — a NaN-timed entry would poison heap ordering.
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        self.env = env
        self._callbacks = None
        self._waiter = None
        self._ok = True
        self._value = value
        self._processed = False
        self.delay = delay
        # Inlined Environment.schedule — one sleep per client think time
        # makes this the single most executed constructor in a run.
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, _NORMAL_KEY | eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


def timeout_factory(env) -> Callable[..., Timeout]:
    """Build the ``env.timeout`` fast factory for ``env``.

    The returned closure constructs a :class:`Timeout` exactly as
    ``Timeout(env, delay, value)`` would — same validation, same field
    values, same eid sequence, same heap entry — but via
    ``Timeout.__new__`` plus direct slot stores, skipping the
    ``type.__call__``/``__init__`` dispatch that costs a measurable
    slice of the busiest allocation site in any run. Lives here, next to
    :class:`Timeout`, so the two construction paths cannot drift apart
    unnoticed.
    """
    queue = env._queue
    new = Timeout.__new__

    def timeout(delay: float, value: Any = None) -> Timeout:
        """Schedule a :class:`Timeout` firing ``delay`` from now."""
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        event = new(Timeout)
        event.env = env
        event._callbacks = None
        event._waiter = None
        event._ok = True
        event._value = value
        event._processed = False
        event.delay = delay
        env._eid = eid = env._eid + 1
        heappush(queue, (env._now + delay, _NORMAL_KEY | eid, event))
        return event

    return timeout

