"""Unit tests for repro.sim.resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Store


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")
        get = store.get()
        assert get.triggered
        assert get.value == "item"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        get = store.get()
        assert not get.triggered
        store.put("later")
        assert get.triggered
        assert get.value == "later"

    def test_fifo_order(self, env):
        store = Store(env)
        for item in (1, 2, 3):
            store.put(item)
        values = [store.get().value for _ in range(3)]
        assert values == [1, 2, 3]

    def test_bounded_store_blocks_put(self, env):
        store = Store(env, capacity=1)
        first = store.put("a")
        second = store.put("b")
        assert first.triggered
        assert not second.triggered
        got = store.get()
        assert got.value == "a"
        assert second.triggered

    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)

    def test_producer_consumer_processes(self, env):
        store = Store(env, capacity=2)
        consumed = []

        def producer():
            for index in range(5):
                yield store.put(index)
                yield env.timeout(1.0)

        def consumer():
            for _ in range(5):
                item = yield store.get()
                consumed.append(item)
                yield env.timeout(2.0)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert consumed == [0, 1, 2, 3, 4]
