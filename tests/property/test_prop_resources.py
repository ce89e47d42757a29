"""Model-based property tests for Store semantics."""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.sim.engine import Environment
from repro.sim.resources import Store


class StoreModel(RuleBasedStateMachine):
    """Check Store FIFO semantics against a plain list."""

    @initialize(capacity=st.integers(min_value=1, max_value=5))
    def setup(self, capacity):
        self.env = Environment()
        self.capacity = capacity
        self.store = Store(self.env, capacity=capacity)
        self.model = []  # items logically inside the store
        self.pending_puts = []  # (event, item) blocked on capacity
        self.pending_gets = []  # events blocked on emptiness
        self.counter = 0

    @rule()
    def put(self):
        self.counter += 1
        item = self.counter
        event = self.store.put(item)
        if self.pending_gets:
            # A waiting getter consumes the item immediately.
            getter = self.pending_gets.pop(0)
            assert getter.triggered
            assert getter.value == item
            assert event.triggered
        elif len(self.model) < self.capacity:
            assert event.triggered
            self.model.append(item)
        else:
            assert not event.triggered
            self.pending_puts.append((event, item))

    @rule()
    def get(self):
        event = self.store.get()
        if self.model:
            assert event.triggered
            assert event.value == self.model.pop(0)
            if self.pending_puts:
                put_event, item = self.pending_puts.pop(0)
                assert put_event.triggered
                self.model.append(item)
        else:
            assert not event.triggered
            self.pending_gets.append(event)

    @invariant()
    def item_count_matches(self):
        if not hasattr(self, "store"):
            return
        assert list(self.store.items) == self.model
        assert len(self.model) <= self.capacity


TestStoreModel = StoreModel.TestCase
