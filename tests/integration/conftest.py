"""Fixtures shared by the dispatch-fabric integration tests."""

from __future__ import annotations

import time

import pytest

from repro.experiments.dispatch import Coordinator


@pytest.fixture
def leases_after_join(monkeypatch):
    """Make coordinators lease no cell until ``workers`` agents joined.

    Agent subprocesses start at different speeds, and a cell takes well
    under a second, so without this one agent can drain a small batch
    before the other has connected. Call the returned function with the
    number of agents the test spawns; the hold applies to every batch
    the test runs and gives up after ``timeout`` seconds.
    """

    def hold(workers: int, timeout: float = 60.0) -> None:
        answer = Coordinator._answer_request

        def answer_after_join(self, connection, worker_id):
            deadline = time.monotonic() + timeout
            while len(self.roster) < workers and time.monotonic() < deadline:
                time.sleep(0.01)
            return answer(self, connection, worker_id)

        monkeypatch.setattr(Coordinator, "_answer_request", answer_after_join)

    return hold
