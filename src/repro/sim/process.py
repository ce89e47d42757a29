"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator. The generator models a
concurrent activity by ``yield``-ing events; the process suspends until
the yielded event is processed and is then resumed with the event's value
(or, for failed events, with the failure exception raised at the
``yield``). A process is itself an :class:`~repro.sim.events.Event` that
triggers when its generator returns, so processes can wait for each other.

The resume path is the engine's inner loop: for the dominant
sleep-on-a-:class:`~repro.sim.events.Timeout` pattern a process parks
itself in the event's ``_waiter`` slot (no callbacks-list allocation)
and the dispatch loop in :meth:`~repro.sim.engine.Environment.run`
resumes it directly.
"""

from __future__ import annotations

from typing import Generator

from ..errors import SimulationError, StopProcess
from .events import PRIORITY_URGENT, Event, _PENDING


class _Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env, process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self._waiter = process
        env.schedule(self, priority=PRIORITY_URGENT)


class Process(Event):
    """A running simulation process (see module docstring)."""

    __slots__ = ("_generator",)

    def __init__(self, env, generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not exited."""
        return self._value is _PENDING

    # -- internal ---------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Resume the generator with the processed ``event``.

        A process waits on exactly one event at a time and is resumed
        once per wait, so a resume always finds the generator alive.
        """
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except BaseException as error:  # incl. StopIteration
            self._terminate(error)
        else:
            self._after_yield(next_event)

    def _after_yield(self, next_event) -> None:
        """Wait on the event the generator just yielded.

        Also the slow tail of the resume inlined in
        :meth:`Environment.run`, for anything but a fresh sole-waiter
        Timeout. Registers on ``next_event`` — or, if it is already
        processed, keeps pumping the generator with its outcome.
        """
        while True:
            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._generator.close()
                self.fail(error)
                return
            if not next_event._processed:
                # Still pending or queued: wait for it. Claim the waiter
                # slot when no registration exists yet (the common case:
                # a Timeout nothing else waits on) — zero allocations.
                if next_event._waiter is None and next_event._callbacks is None:
                    next_event._waiter = self
                else:
                    callbacks = next_event._callbacks
                    if callbacks is None:
                        callbacks = next_event._callbacks = []
                    callbacks.append(self._resume)
                return
            # Already processed: feed its outcome straight back in.
            try:
                if next_event._ok:
                    next_event = self._generator.send(next_event._value)
                else:
                    next_event = self._generator.throw(next_event._value)
            except BaseException as error:  # incl. StopIteration
                self._terminate(error)
                return

    def _terminate(self, error: BaseException) -> None:
        """Finish with the exception that ended the generator.

        ``StopIteration`` and :class:`~repro.errors.StopProcess` are a
        normal return; anything else fails the process.
        """
        if isinstance(error, StopIteration):
            self.succeed(getattr(error, "value", None))
        elif isinstance(error, StopProcess):
            self.succeed(error.value)
        else:
            self.fail(error)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process {name} at {id(self):#x}>"
