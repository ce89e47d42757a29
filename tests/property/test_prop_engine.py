"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EmptySchedule, Environment
from repro.sim.fastforward import FastForwardEnvironment

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=50,
)


class TestEventOrdering:
    @given(delays)
    def test_callbacks_fire_in_nondecreasing_time_order(self, delay_list):
        env = Environment()
        fired = []
        for delay in delay_list:
            env.timeout(delay).callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delay_list)

    @given(delays)
    def test_clock_ends_at_latest_event(self, delay_list):
        env = Environment()
        for delay in delay_list:
            env.timeout(delay)
        env.run()
        assert env.now == max(delay_list)

    @given(delays, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_run_until_never_processes_later_events(self, delay_list, until):
        env = Environment()
        fired = []
        for delay in delay_list:
            env.timeout(delay).callbacks.append(lambda e: fired.append(env.now))
        env.run(until=until)
        assert all(t <= until for t in fired)
        assert env.now == until

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                    max_size=30))
    def test_same_time_events_preserve_insertion_order(self, tags):
        env = Environment()
        fired = []
        for index, _ in enumerate(tags):
            env.timeout(5.0, value=index).callbacks.append(
                lambda e: fired.append(e.value)
            )
        env.run()
        assert fired == list(range(len(tags)))


class TestProcessScheduling:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_sequential_timeouts_accumulate(self, waits):
        env = Environment()
        result = []

        def proc():
            for wait in waits:
                yield env.timeout(wait)
            result.append(env.now)

        env.process(proc())
        env.run()
        assert result[0] == sum(waits) or abs(result[0] - sum(waits)) < 1e-6

    @given(st.integers(min_value=1, max_value=30))
    def test_n_processes_all_complete(self, count):
        env = Environment()
        done = []

        def proc(index):
            yield env.timeout(float(index))
            done.append(index)

        for index in range(count):
            env.process(proc(index))
        env.run()
        assert sorted(done) == list(range(count))


#: One worker action: sleep for a delay, wait on a shared gate, or wait
#: on something that fails — a shared failing gate (even target) or a
#: fresh child process that sleeps and then raises (odd target) — and
#: catch the exception at the ``yield``. Together these exercise every
#: dispatch shape the engine has: the sole-waiter sleep fast path,
#: shared events with waiter + callbacks-list registration, waits on
#: already-processed events, the throw path for failed events and the
#: slow tail for a non-Timeout sole wait.
_ACTION = st.tuples(
    st.sampled_from(["sleep", "wait", "fail"]),
    st.floats(min_value=0.0, max_value=16.0, allow_nan=False),
    st.integers(min_value=0, max_value=3),
)

_PROGRAM = st.lists(
    st.lists(_ACTION, min_size=0, max_size=6), min_size=1, max_size=4
)


class TestStepRunEquivalence:
    """run() is an inlined fast path over the same dispatch as step().

    The contract pinned here: for ANY program of sleeps, shared-event
    waits and waits on failing events, driving the simulation with
    ``run()`` and driving an identical twin with ``step()`` until
    :class:`EmptySchedule` produces bit-identical trajectories (same
    wakeups, same clock values, same caught failures, in the same
    order). Both copies of the inlined dispatch are held to it: the one
    in :meth:`Environment.run` and the reference branch of
    :meth:`FastForwardEnvironment.run`, driven with no task class
    registered.
    """

    @staticmethod
    def _execute(program, env_class, mode):
        env = env_class()
        log = []
        gates = [env.event() for _ in range(4)]
        failing_gates = [env.event() for _ in range(2)]

        def failing_child(delay, tag):
            yield env.timeout(delay)
            raise ValueError(f"child {tag} failed")

        def worker(worker_id, actions):
            for index, (kind, delay, target) in enumerate(actions):
                if kind == "sleep":
                    yield env.timeout(delay)
                    log.append((worker_id, index, env.now, "slept"))
                elif kind == "wait":
                    value = yield gates[target]
                    log.append((worker_id, index, env.now, "gate", value))
                else:
                    if target % 2:
                        failing = env.process(
                            failing_child(delay, (worker_id, index))
                        )
                    else:
                        failing = failing_gates[target // 2]
                    try:
                        yield failing
                        log.append((worker_id, index, env.now, "no-failure"))
                    except ValueError as error:
                        log.append((worker_id, index, env.now, str(error)))
            log.append((worker_id, "done", env.now))

        def gatekeeper():
            for number, gate in enumerate(gates):
                yield env.timeout(3.0)
                gate.succeed(env.now)
                if number < len(failing_gates):
                    failing_gates[number].fail(
                        ValueError(f"gate {number} failed at {env.now}")
                    )

        for worker_id, actions in enumerate(program):
            env.process(worker(worker_id, actions))
        env.process(gatekeeper())

        if mode == "run":
            env.run()
        else:
            while True:
                try:
                    env.step()
                except EmptySchedule:
                    break
        log.append(("final-clock", env.now))
        return log

    @given(_PROGRAM)
    @settings(max_examples=60, deadline=None)
    def test_step_and_run_trajectories_identical(self, program):
        reference = self._execute(program, Environment, "step")
        assert self._execute(program, Environment, "run") == reference
        fast = self._execute(program, FastForwardEnvironment, "run")
        assert fast == reference
