"""A FIFO object buffer built on the event engine.

The paper's model itself needs no queued resources (servers are modelled
as fluid accumulators). :class:`Store` — an unbounded-or-bounded FIFO
buffer of Python objects with blocking ``get``/``put`` — backs the
event-driven :class:`~repro.web.queueing.QueueingWebServer`, the
reference implementation the fluid server is cross-validated against.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..errors import SimulationError
from .events import Event


class StorePut(Event):
    """Pending insertion of ``item`` into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending removal of the oldest item from a :class:`Store`."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._getters.append(self)
        store._dispatch()


class Store:
    """A FIFO object buffer with optional bounded capacity."""

    __slots__ = ("env", "capacity", "items", "_putters", "_getters")

    def __init__(self, env, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity if capacity is not None else float("inf")
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event triggers once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove the oldest item; the event triggers with that item."""
        return StoreGet(self)

    def _dispatch(self) -> None:
        items = self.items
        putters = self._putters
        getters = self._getters
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            if putters and len(items) < capacity:
                put = putters.popleft()
                items.append(put.item)
                put.succeed()
                progressed = True
            if getters and items:
                get = getters.popleft()
                get.succeed(items.popleft())
                progressed = True

    def __repr__(self) -> str:
        return f"<Store items={len(self.items)} capacity={self.capacity}>"
