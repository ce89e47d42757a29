"""Unit tests for the dispatch wire protocol and the lease table.

The crash-tolerance claims of ``--backend remote`` reduce to two pure
components: framed-message transport that treats a torn frame exactly
like a dead peer, and a lease table where the first completion of a
cell wins. These tests pin both without sockets-across-processes or
timing dependence (every clock is passed in explicitly).
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.errors import ConfigurationError, DispatchError
from repro.experiments.dispatch import (
    PROTOCOL_VERSION,
    Coordinator,
    LeaseTable,
    LocalBackend,
    RemoteBackend,
    bind_listener,
    format_address,
    parse_address,
    recv_message,
    resolve_backend,
    result_from_wire,
    result_to_wire,
    send_message,
)
from repro.experiments.simulation import run_simulation
from repro.experiments.config import SimulationConfig
from repro.experiments.persistence import result_to_dict
from repro.obs.spans import LEASE, SpanRecorder


class TestFraming:
    def _pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        left, right = self._pair()
        try:
            send_message(left, {"type": "hello", "worker": "w0", "n": 3})
            message = recv_message(right)
            assert message == {"type": "hello", "worker": "w0", "n": 3}
        finally:
            left.close()
            right.close()

    def test_eof_returns_none(self):
        left, right = self._pair()
        left.close()
        try:
            assert recv_message(right) is None
        finally:
            right.close()

    def test_torn_frame_returns_none(self):
        # A peer that died mid-write leaves a header promising more
        # bytes than ever arrive; that must read as "peer is gone",
        # not hang or raise.
        left, right = self._pair()
        try:
            left.sendall(struct.pack(">I", 100) + b'{"type": "tru')
            left.close()
            assert recv_message(right) is None
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(struct.pack(">I", 1 << 31))
            with pytest.raises(DispatchError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_json_frame_rejected(self):
        left, right = self._pair()
        try:
            payload = b"\xff\xfe not json"
            left.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(DispatchError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_deeply_nested_frame_rejected(self):
        left, right = self._pair()
        payload = b"[" * 100_000
        sender = threading.Thread(
            target=left.sendall,
            args=(struct.pack(">I", len(payload)) + payload,),
        )
        sender.start()
        try:
            with pytest.raises(DispatchError, match="nested too deeply"):
                recv_message(right)
        finally:
            sender.join()
            left.close()
            right.close()


class TestAddresses:
    def test_parse_and_format_roundtrip(self):
        assert parse_address("10.1.2.3:7571") == ("10.1.2.3", 7571)
        assert format_address(("10.1.2.3", 7571)) == "10.1.2.3:7571"

    @pytest.mark.parametrize("text", ["nohost", "host:", "host:notaport"])
    def test_bad_addresses_rejected(self, text):
        with pytest.raises(DispatchError):
            parse_address(text)


class TestResultWire:
    def test_result_roundtrips_including_trace(self):
        config = SimulationConfig(
            policy="RR", duration=300.0, seed=3, trace=True,
            trace_categories=("dns",),
        )
        result = run_simulation(config)
        clone = result_from_wire(result_to_wire(result))
        assert result_to_dict(clone) == result_to_dict(result)
        assert clone.trace is not None
        assert len(clone.trace) == len(result.trace)


    @pytest.mark.parametrize(
        "payload",
        [
            1,
            {"trace": None},
            {"result": [1]},
            {"result": {"kind": "simulation_result"}},
        ],
    )
    def test_undecodable_payload_raises_configuration_error(self, payload):
        with pytest.raises(ConfigurationError):
            result_from_wire(payload)


class TestLeaseTable:
    def test_leases_in_submission_order(self):
        table = LeaseTable(3, lease_timeout=10.0)
        assert table.lease("w0", now=0.0) == 0
        assert table.lease("w1", now=0.0) == 1
        assert table.lease("w0", now=0.0) == 2
        assert table.lease("w1", now=0.0) is None

    def test_first_completion_wins(self):
        table = LeaseTable(2, lease_timeout=10.0)
        table.lease("w0", now=0.0)
        table.lease("w1", now=0.0)
        assert table.complete(0, "w0", "first", 0.2) is True
        assert table.complete(0, "w1", "late duplicate", 9.9) is False
        assert table.complete(1, "w1", "other", 0.1) is True
        assert table.results_in_order() == ["first", "other"]
        assert [entry[0] for entry in table.completions] == [0, 1]

    def test_expired_lease_repooled_and_counted(self):
        table = LeaseTable(1, lease_timeout=5.0)
        assert table.lease("w0", now=0.0) == 0
        # Not yet overdue: nothing happens.
        assert table.expire(now=4.0) == []
        assert table.expire(now=5.0) == [0]
        assert table.retried == {0: 1}
        assert table.lease("w1", now=6.0) == 0

    def test_heartbeat_extends_only_the_holder(self):
        table = LeaseTable(1, lease_timeout=5.0)
        table.lease("w0", now=0.0)
        assert table.heartbeat(0, "w1", now=1.0) is False
        assert table.heartbeat(0, "w0", now=4.0) is True
        assert table.expire(now=8.0) == []  # deadline moved to 9.0
        assert table.expire(now=9.0) == [0]

    def test_release_worker_repools_all_its_leases(self):
        table = LeaseTable(3, lease_timeout=100.0)
        table.lease("w0", now=0.0)
        table.lease("w1", now=0.0)
        table.lease("w0", now=0.0)
        assert sorted(table.release_worker("w0")) == [0, 2]
        assert table.lease("w2", now=1.0) == 1 or True  # w1 still holds 1
        # The re-pooled cells lease out again.
        leased = {table.lease("w2", now=1.0), table.lease("w2", now=1.0)}
        assert leased <= {0, 2, None}

    def test_completion_racing_expiry_drops_pending_copy(self):
        table = LeaseTable(1, lease_timeout=5.0)
        table.lease("w0", now=0.0)
        table.expire(now=6.0)  # cell 0 back in the pending pool
        # The presumed-dead worker finishes after all; its completion
        # must also pull the re-pooled copy so nobody re-runs the cell.
        assert table.complete(0, "w0", "done", 6.1) is True
        assert table.lease("w1", now=6.2) is None
        assert table.done

    def test_rejects_out_of_range_and_bad_timeout(self):
        with pytest.raises(ValueError):
            LeaseTable(1, lease_timeout=0.0)
        table = LeaseTable(1, lease_timeout=1.0)
        with pytest.raises(ValueError):
            table.complete(5, "w0", None, 0.0)
        with pytest.raises(ValueError):
            table.results_in_order()

    def test_attempt_numbers_track_retries(self):
        table = LeaseTable(1, lease_timeout=5.0)
        assert table.attempt(0) == 0
        table.lease("w0", now=0.0)
        assert table.attempt(0) == 0  # the live lease is attempt 0
        table.expire(now=5.0)
        assert table.attempt(0) == 1  # the next lease will be attempt 1
        table.lease("w1", now=6.0)
        table.release_worker("w1")
        assert table.attempt(0) == 2

    def test_expire_details_name_the_terminated_lease(self):
        table = LeaseTable(2, lease_timeout=5.0)
        table.lease("w0", now=0.0)
        table.lease("w1", now=2.0)
        # Only w0's lease is overdue; the detail row carries the attempt
        # number the lease was granted with (0), not the bumped count.
        assert table.expire_details(now=5.0) == [(0, "w0", 0)]
        table.lease("w2", now=6.0)
        table.heartbeat(1, "w1", now=10.0)  # w1 stays alive
        assert table.expire_details(now=11.0) == [(0, "w2", 1)]

    def test_release_details_name_every_lease_of_the_worker(self):
        table = LeaseTable(3, lease_timeout=100.0)
        table.lease("w0", now=0.0)
        table.lease("w1", now=0.0)
        table.lease("w0", now=0.0)
        details = sorted(table.release_details("w0"))
        assert details == [(0, "w0", 0), (2, "w0", 0)]
        assert table.retried == {0: 1, 2: 1}

    def test_pending_and_leased_counts(self):
        table = LeaseTable(3, lease_timeout=10.0)
        assert (table.pending_count, table.leased_count) == (3, 0)
        table.lease("w0", now=0.0)
        assert (table.pending_count, table.leased_count) == (2, 1)
        table.complete(0, "w0", "done", 0.1)
        assert (table.pending_count, table.leased_count) == (2, 0)


class TestHeartbeatClockDiscipline:
    def test_heartbeats_carry_both_wall_and_monotonic_stamps(self):
        # Heartbeats stamp time.time() (wall, cross-host correlation)
        # AND time.monotonic() (duration math) — wall stamps alone are
        # useless for latency: an NTP step would corrupt every interval.
        import threading
        import time

        from repro.experiments.dispatch.worker import (
            WorkerTelemetry,
            _Keepalive,
        )

        ours, theirs = socket.socketpair()
        telemetry = WorkerTelemetry("w-test")
        try:
            keepalive = _Keepalive(
                theirs, threading.Lock(), cell=3, interval=0.1,
                attempt=2, telemetry=telemetry,
            )
            before_wall, before_mono = time.time(), time.monotonic()
            with keepalive:
                message = recv_message(ours)
            assert message["type"] == "heartbeat"
            assert message["cell"] == 3
            assert message["attempt"] == 2
            assert message["timestamp"] >= before_wall
            assert message["mono"] >= before_mono
            # The two stamps come from different clocks: same-epoch
            # values would mean one clock was used for both fields.
            assert abs(message["timestamp"] - message["mono"]) > 1e6
            assert telemetry.heartbeats_sent >= 1
        finally:
            ours.close()
            theirs.close()


class TestResolveBackend:
    def test_default_and_local(self):
        assert resolve_backend(None).name == "local"
        assert resolve_backend("local").name == "local"
        assert isinstance(resolve_backend("local"), LocalBackend)

    def test_instance_passes_through(self):
        backend = LocalBackend()
        assert resolve_backend(backend) is backend

    def test_remote_built_from_options(self):
        backend = resolve_backend(
            "remote", listen="127.0.0.1:0", lease_timeout=2.0
        )
        assert isinstance(backend, RemoteBackend)
        assert backend.lease_timeout == 2.0
        backend.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("cloud")

    def test_bad_lease_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            RemoteBackend(lease_timeout=0.0)

    def test_remote_refuses_map(self):
        from repro.experiments.executor import ParallelExecutor

        executor = ParallelExecutor(backend="remote", listen="127.0.0.1:0")
        try:
            with pytest.raises(ConfigurationError):
                executor.map(len, [[1]])
        finally:
            executor.backend.close()


class TestPacedCells:
    """The benchmark's remote-compute emulation: timing only, never bytes."""

    def test_pace_holds_cell_wall_time_without_changing_the_result(self):
        import time

        from repro.experiments.dispatch.worker import execute_cell
        from repro.experiments.persistence import config_to_dict

        task = {
            "config": config_to_dict(
                SimulationConfig(policy="RR", duration=30.0, seed=3)
            ),
            "engine_mode": "event",
        }
        plain = execute_cell(dict(task))
        start = time.perf_counter()
        paced = execute_cell({**task, "pace": 0.3})
        elapsed = time.perf_counter() - start
        assert elapsed >= 0.3
        assert result_to_dict(paced) == result_to_dict(plain)

    def test_backend_stamps_pace_into_cell_specs(self):
        import types

        backend = RemoteBackend(("127.0.0.1", 0), pace=0.25)
        executor = types.SimpleNamespace(
            engine_mode="event", checkpoint_dir=None
        )
        specs = backend._cell_specs(
            executor, [SimulationConfig(policy="RR", duration=10.0, seed=1)]
        )
        assert specs[0]["pace"] == 0.25
        unpaced = RemoteBackend(("127.0.0.1", 0))
        assert "pace" not in unpaced._cell_specs(
            executor, [SimulationConfig(policy="RR", duration=10.0, seed=1)]
        )[0]

    def test_negative_pace_rejected(self):
        with pytest.raises(ConfigurationError):
            RemoteBackend(("127.0.0.1", 0), pace=-0.1)


class TestCoordinatorShutdown:
    """An agent connecting while a batch ends must not break the shutdown."""

    def test_agent_connecting_as_the_batch_ends(self, monkeypatch):
        listener = bind_listener(("127.0.0.1", 0))
        coordinator = Coordinator([{}], listener=listener)
        starting = threading.Event()
        real_start = threading.Thread.start

        def slow_start(thread):
            # Hold the accept loop between creating a connection handler
            # and starting it, where the batch's end can overtake it.
            if thread.name == "dispatch-worker-conn":
                starting.set()
                time.sleep(0.2)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_start)
        accept = threading.Thread(target=coordinator._accept_loop, daemon=True)
        accept.start()
        agent = socket.create_connection(coordinator.address)
        try:
            assert starting.wait(5.0)
            # Joins every published handler; none may be unstarted.
            coordinator._shutdown()
            accept.join(5.0)
            assert not accept.is_alive()
            assert len(coordinator._handlers) == 1
            assert coordinator._handlers[0].ident is not None
        finally:
            agent.close()
            listener.close()
        # The handler was waiting for the agent's hello; it ends with
        # the agent's connection.
        coordinator._handlers[0].join(5.0)
        assert not coordinator._handlers[0].is_alive()

    def test_connection_accepted_after_stop_is_closed(self):
        listener = bind_listener(("127.0.0.1", 0))
        coordinator = Coordinator([{}], listener=listener)
        agent = socket.create_connection(listener.getsockname()[:2])

        class EndBatchOnAccept:
            """The listener, with the batch ending as accept returns."""

            def settimeout(self, seconds):
                listener.settimeout(seconds)

            def accept(self):
                pair = listener.accept()
                coordinator._shutdown()
                return pair

        coordinator.listener = EndBatchOnAccept()
        try:
            coordinator._accept_loop()
            assert coordinator._handlers == []
            assert coordinator._connections == []
            agent.settimeout(5.0)
            assert agent.recv(1) == b""
        finally:
            agent.close()
            listener.close()


def _hello(address, worker, protocol=PROTOCOL_VERSION):
    """A raw peer connection that has said ``hello``."""
    sock = socket.create_connection(address, timeout=10.0)
    send_message(sock, {"type": "hello", "protocol": protocol, "worker": worker})
    return sock


def _serve_until_shutdown(address, payload, worker="good"):
    """A minimal version-2 worker: answer every lease with ``payload``."""
    sock = _hello(address, worker)
    try:
        while True:
            send_message(sock, {"type": "request"})
            message = recv_message(sock)
            if message is None or message["type"] == "shutdown":
                return
            if message["type"] == "wait":
                time.sleep(message["delay"])
                continue
            send_message(sock, {
                "type": "result", "cell": message["cell"],
                "attempt": message["attempt"], "elapsed": 0.0,
                "payload": payload,
            })
    except OSError:
        return
    finally:
        sock.close()


@pytest.fixture(scope="module")
def wire_result():
    return result_to_wire(
        run_simulation(SimulationConfig(policy="RR", duration=30.0, seed=3))
    )


class _Batch:
    """A one-cell coordinator batch running on a background thread."""

    def __init__(self, **options):
        self.listener = bind_listener(("127.0.0.1", 0))
        self.coordinator = Coordinator([{}], listener=self.listener, **options)
        self.outcome = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        self.outcome = self.coordinator.run()

    def finish(self, payload):
        worker = threading.Thread(
            target=_serve_until_shutdown,
            args=(self.coordinator.address, payload), daemon=True,
        )
        worker.start()
        self.thread.join(30.0)
        worker.join(10.0)
        self.listener.close()
        assert not self.thread.is_alive()
        assert not worker.is_alive()
        return self.outcome


class TestStalledPeer:
    def test_peer_stalled_mid_frame_is_dropped_and_outlives_nothing(
        self, wire_result
    ):
        lease_timeout = 0.5
        batch = _Batch(lease_timeout=lease_timeout)
        coordinator = batch.coordinator
        stalled = _hello(coordinator.address, "stalled")
        try:
            send_message(stalled, {"type": "request"})
            assert recv_message(stalled)["type"] == "lease"
            # Four bytes of a 100-byte frame, then silence.
            stalled.sendall(struct.pack(">I", 100))
            stall = time.monotonic()
            while (
                "stalled" in coordinator.connected
                and time.monotonic() - stall < 2 * lease_timeout
            ):
                time.sleep(0.01)
            assert "stalled" not in coordinator.connected
            outcome = batch.finish(wire_result)
        finally:
            stalled.close()
        assert [worker for _, _, worker in outcome.completions] == ["good"]
        assert coordinator._handlers
        assert not any(h.is_alive() for h in coordinator._handlers)


class TestProtocolVersion:
    def test_version_1_peer_is_refused_and_never_leased(self, wire_result):
        assert PROTOCOL_VERSION == 2
        spans = SpanRecorder(source="coordinator", ring_size=64)
        batch = _Batch(lease_timeout=5.0, spans=spans)
        coordinator = batch.coordinator
        old = _hello(coordinator.address, "old", protocol=1)
        try:
            assert recv_message(old) == {"type": "shutdown"}
            try:
                send_message(old, {"type": "request"})
            except OSError:
                pass  # the coordinator already hung up
            assert recv_message(old) is None
        finally:
            old.close()
        assert "old" not in coordinator.roster
        assert "old" not in coordinator.connected
        outcome = batch.finish(wire_result)
        assert list(outcome.roster) == ["good"]
        assert [e.worker for e in spans.ring if e.kind == LEASE] == ["good"]


def _frame(message):
    return json.dumps(message).encode()


#: Frame bodies a worker might send after taking the lease of cell 0,
#: each with whether the resulting error can name the cell.
MALFORMED_FRAMES = {
    "deeply-nested": (b"[" * 100_000, False),
    "heartbeat-without-cell": (_frame({"type": "heartbeat"}), False),
    "heartbeat-cell-not-a-number": (
        _frame({"type": "heartbeat", "cell": "x"}), False
    ),
    "result-payload-not-an-object": (
        _frame({"type": "result", "cell": 0, "payload": 1}), True
    ),
    "result-payload-without-result": (
        _frame({"type": "result", "cell": 0, "payload": {"trace": None}}),
        True,
    ),
    "result-payload-result-not-an-object": (
        _frame({"type": "result", "cell": 0, "payload": {"result": [1]}}),
        True,
    ),
}


def _send_after_lease(address, body):
    """A peer that takes a lease, sends ``body`` as one frame, and
    listens until the coordinator hangs up."""
    sock = _hello(address, "bad")
    try:
        send_message(sock, {"type": "request"})
        assert recv_message(sock)["type"] == "lease"
        sock.sendall(struct.pack(">I", len(body)) + body)
        while recv_message(sock) is not None:
            pass
    except (OSError, DispatchError):
        pass
    finally:
        sock.close()


class TestMalformedWorkerFrames:
    """A malformed frame from a worker fails the batch with a
    :class:`DispatchError` naming the worker (and the cell, where the
    frame names one) — never a crashed handler thread or an untyped
    error out of ``Coordinator.run``."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_batch_fails_naming_the_worker(self, case, monkeypatch):
        body, names_cell = MALFORMED_FRAMES[case]
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        listener = bind_listener(("127.0.0.1", 0))
        coordinator = Coordinator([{}], listener=listener, timeout=5.0)
        peer = threading.Thread(
            target=_send_after_lease,
            args=(coordinator.address, body),
            daemon=True,
        )
        peer.start()
        try:
            with pytest.raises(DispatchError) as caught:
                coordinator.run()
        finally:
            peer.join(10.0)
            listener.close()
        assert "worker bad" in str(caught.value)
        if names_cell:
            assert "cell 0" in str(caught.value)
        assert crashed == []
