"""Unit tests for repro.sim.events."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout


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

    def test_trigger_copies_state_from_other_event(self, env):
        source = env.event().succeed("data")
        target = env.event()
        target.trigger(source)
        assert target.triggered
        assert target.value == "data"

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


class TestConditionEvents:
    def test_all_of_waits_for_every_event(self, env):
        first, second = env.event(), env.event()
        both = env.all_of([first, second])
        first.succeed(1)
        env.run()
        assert not both.triggered
        second.succeed(2)
        env.run()
        assert both.triggered
        assert both.value == {first: 1, second: 2}

    def test_any_of_fires_on_first(self, env):
        first, second = env.event(), env.event()
        either = env.any_of([first, second])
        second.succeed("winner")
        env.run()
        assert either.triggered
        assert either.value == {second: "winner"}

    def test_empty_all_of_succeeds_immediately(self, env):
        assert env.all_of([]).triggered

    def test_all_of_fails_if_member_fails(self, env):
        first, second = env.event(), env.event()
        both = env.all_of([first, second])
        first.fail(ValueError("nope"))
        env.run()
        assert both.triggered
        assert not both.ok

    @pytest.mark.parametrize("condition", ["any_of", "all_of"])
    def test_failed_member_raises_at_the_waiting_yield(self, env, condition):
        log = []

        def failer(event):
            yield env.timeout(10.0)
            event.fail(ValueError("member failed"))

        def waiter():
            failing = env.event()
            env.process(failer(failing))
            try:
                yield getattr(env, condition)([env.timeout(100.0), failing])
                log.append(("done", env.now))
            except ValueError as error:
                log.append((str(error), env.now))

        env.process(waiter())
        env.run(until=50.0)
        assert log == [("member failed", 10.0)]

    def test_condition_with_already_triggered_events(self, env):
        done = env.event().succeed("x")
        env.run()
        both = env.all_of([done])
        assert both.triggered
        assert both.value == {done: "x"}

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([other.event()])
