"""Unit tests for repro.sim.process."""

import pytest

from repro.errors import SimulationError, StopProcess


class TestBasicProcesses:
    def test_process_runs_to_completion(self, env):
        log = []

        def worker():
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)

        env.process(worker())
        env.run()
        assert log == [0.0, 2.0]

    def test_process_return_value(self, env):
        def worker():
            yield env.timeout(1.0)
            return "result"

        process = env.process(worker())
        env.run()
        assert process.value == "result"

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_process_is_alive_until_done(self, env):
        def worker():
            yield env.timeout(5.0)

        process = env.process(worker())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_yield_non_event_fails_process(self, env):
        def worker():
            yield 42

        process = env.process(worker())
        env.run()
        assert process.triggered
        assert not process.ok
        assert isinstance(process.value, SimulationError)

    def test_exception_in_process_fails_it(self, env):
        def worker():
            yield env.timeout(1.0)
            raise ValueError("broken")

        process = env.process(worker())
        env.run()
        assert not process.ok
        assert isinstance(process.value, ValueError)

    def test_stop_process_sets_value(self, env):
        def worker():
            yield env.timeout(1.0)
            raise StopProcess("early")

        process = env.process(worker())
        env.run()
        assert process.ok
        assert process.value == "early"

    def test_timeout_value_passed_into_process(self, env):
        received = []

        def worker():
            value = yield env.timeout(1.0, value="payload")
            received.append(value)

        env.process(worker())
        env.run()
        assert received == ["payload"]


class TestProcessComposition:
    def test_process_waits_for_another_process(self, env):
        log = []

        def child():
            yield env.timeout(3.0)
            return "child-result"

        def parent():
            result = yield env.process(child())
            log.append((env.now, result))

        env.process(parent())
        env.run()
        assert log == [(3.0, "child-result")]

    def test_waiting_on_completed_process(self, env):
        def child():
            yield env.timeout(1.0)
            return "done"

        child_process = env.process(child())

        def parent():
            yield env.timeout(5.0)
            result = yield child_process
            return result

        parent_process = env.process(parent())
        env.run()
        assert parent_process.value == "done"

    def test_failed_child_propagates_into_parent(self, env):
        def child():
            yield env.timeout(1.0)
            raise RuntimeError("child failed")

        def parent():
            try:
                yield env.process(child())
            except RuntimeError as error:
                return f"caught {error}"

        parent_process = env.process(parent())
        env.run()
        assert parent_process.value == "caught child failed"

    def test_two_processes_interleave(self, env):
        log = []

        def ticker(name, period):
            while env.now < 4.0:
                yield env.timeout(period)
                log.append((env.now, name))

        env.process(ticker("fast", 1.0))
        env.process(ticker("slow", 2.0))
        env.run(until=4.5)
        assert (1.0, "fast") in log
        assert (2.0, "slow") in log
        assert log == sorted(log, key=lambda item: item[0])
