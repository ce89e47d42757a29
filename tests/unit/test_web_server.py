"""Unit tests for repro.web.server (the fluid server model)."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.web.server import WebServer


class TestConstruction:
    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            WebServer(0, 0.0)

    def test_initial_state(self):
        server = WebServer(3, 100.0)
        assert server.backlog_seconds == 0.0
        assert server.total_hits == 0
        assert server.utilization(0.0) == 0.0


class TestFluidDynamics:
    def test_offer_adds_backlog(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=50, domain_id=0)
        assert server.backlog_seconds == pytest.approx(0.5)

    def test_backlog_drains_over_time(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=100, domain_id=0)  # 1 second of work
        assert server.utilization(0.5) == pytest.approx(1.0)
        assert server.backlog_seconds == pytest.approx(0.5)

    def test_idle_after_drain(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=100, domain_id=0)
        # 1s of work in a 4s window -> 25% busy
        assert server.utilization(4.0) == pytest.approx(0.25)
        assert server.backlog_seconds == 0.0

    def test_zero_hits_rejected(self):
        server = WebServer(0, 100.0)
        with pytest.raises(SimulationError):
            server.offer(0.0, hits=0, domain_id=0)

    def test_time_backwards_rejected(self):
        server = WebServer(0, 100.0)
        server.offer(5.0, hits=10, domain_id=0)
        with pytest.raises(SimulationError):
            server.offer(4.0, hits=10, domain_id=0)

    def test_overload_keeps_utilization_at_one(self):
        server = WebServer(0, 10.0)
        server.offer(0.0, hits=100, domain_id=0)  # 10s of work
        assert server.utilization(5.0) == pytest.approx(1.0)
        assert server.backlog_seconds == pytest.approx(5.0)

    def test_slower_server_holds_work_longer(self):
        fast = WebServer(0, 100.0)
        slow = WebServer(1, 25.0)
        for server in (fast, slow):
            server.offer(0.0, hits=50, domain_id=0)
        assert fast.utilization(4.0) == pytest.approx(0.125)
        assert slow.utilization(4.0) == pytest.approx(0.5)


class TestWindows:
    def test_end_window_returns_busy_fraction(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=200, domain_id=0)  # 2s of work
        utilization = server.end_window(8.0)
        assert utilization == pytest.approx(0.25)

    def test_window_resets_after_end(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=200, domain_id=0)
        server.end_window(8.0)
        # New window with no arrivals: idle.
        assert server.end_window(16.0) == pytest.approx(0.0)

    def test_backlog_carries_across_windows(self):
        server = WebServer(0, 10.0)
        server.offer(0.0, hits=200, domain_id=0)  # 20s of work
        assert server.end_window(8.0) == pytest.approx(1.0)
        assert server.end_window(16.0) == pytest.approx(1.0)
        # 20s of work done by t=20; window [16, 24) is half busy.
        assert server.end_window(24.0) == pytest.approx(0.5)

    def test_offered_load_can_exceed_one(self):
        server = WebServer(0, 10.0)
        server.offer(0.0, hits=200, domain_id=0)
        assert server.offered_load(8.0) == pytest.approx(200 / 80)

    def test_zero_width_window(self):
        server = WebServer(0, 10.0)
        assert server.utilization(0.0) == 0.0
        server.offer(0.0, hits=10, domain_id=0)
        assert server.utilization(0.0) == 1.0


class TestDomainAccounting:
    def test_per_domain_hits_tracked(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=5, domain_id=1)
        server.offer(1.0, hits=7, domain_id=2)
        server.offer(2.0, hits=3, domain_id=1)
        assert server.domain_hits == {1: 8, 2: 7}

    def test_drain_resets_counters(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=5, domain_id=1)
        drained = server.drain_domain_hits()
        assert drained == {1: 5}
        assert server.domain_hits == {}
        assert server.total_hits == 5  # totals survive the drain

    def test_totals(self):
        server = WebServer(0, 100.0)
        server.offer(0.0, hits=5, domain_id=0)
        server.offer(0.0, hits=6, domain_id=0)
        assert server.total_hits == 11
        assert server.total_pages == 2


class TestOfferRun:
    def test_run_applies_and_empties_pending(self):
        per_page = WebServer(0, 40.0)
        batched = WebServer(0, 40.0)
        bursts = [(0.0, 10, 1), (0.1, 5, 2), (0.1, 7, 1), (3.0, 9, 0)]
        for burst in bursts:
            per_page.offer(*burst)
            batched.pending.append(burst)
        batched.offer_run()
        assert batched.pending == []
        assert batched.snapshot_state() == per_page.snapshot_state()

    def test_zero_hits_rejected(self):
        server = WebServer(0, 100.0)
        server.pending.extend([(0.0, 5, 1), (1.0, 0, 1), (2.0, 5, 1)])
        with pytest.raises(SimulationError):
            server.offer_run()
        reference = WebServer(0, 100.0)
        reference.offer(0.0, 5, 1)
        assert server.pending == []
        assert server.snapshot_state() == reference.snapshot_state()

    def test_time_backwards_rejected(self):
        server = WebServer(0, 100.0)
        server.pending.extend([(5.0, 10, 0), (4.0, 10, 0)])
        with pytest.raises(SimulationError):
            server.offer_run()
        reference = WebServer(0, 100.0)
        reference.offer(5.0, 10, 0)
        assert server.snapshot_state() == reference.snapshot_state()

    def test_readers_apply_the_pending_run(self):
        server = WebServer(0, 10.0)
        server.pending.append((0.0, 20, 3))
        assert server.backlog_seconds == pytest.approx(2.0)
        server.pending.append((1.0, 10, 3))
        assert server.drain_domain_hits() == {3: 30}
        server.pending.append((1.0, 10, 4))
        assert server.offered_load(2.0) == pytest.approx(40 / 20)
        server.pending.append((2.0, 10, 4))
        assert server.end_window(4.0) == pytest.approx(1.0)
        server.pending.append((4.0, 10, 4))
        assert server.utilization(5.0) == pytest.approx(1.0)
        server.pending.append((5.0, 10, 4))
        assert server.snapshot_state()["total_pages"] == 6
        assert server.pending == []
