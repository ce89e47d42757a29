"""Unit tests for repro.sim.events."""

import pytest

from repro.errors import SimulationError


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_carries_exception(self, env):
        error = RuntimeError("boom")
        event = env.event().fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_after_succeed_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_callbacks_run_on_processing(self, env):
        seen = []
        event = env.event()
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]
        assert event.processed

    def test_repr_shows_state(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_fires_at_delay(self, env):
        fired = []
        timeout = env.timeout(5.0, value="done")
        timeout.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [5.0]
        assert timeout.value == "done"

    def test_zero_delay_fires_immediately(self, env):
        fired = []
        env.timeout(0.0).callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.0]
