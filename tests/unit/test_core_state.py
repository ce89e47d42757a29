"""Unit tests for repro.core.state."""

import pytest

from repro.core.estimator import OracleEstimator
from repro.core.state import SchedulerState
from repro.web.cluster import ServerCluster

from ..conftest import make_state


class TestCapacities:
    def test_mirrors_cluster(self):
        state = make_state(heterogeneity=50)
        assert state.server_count == 7
        assert state.relative_capacities == [1.0, 1.0, 0.8, 0.8, 0.5, 0.5, 0.5]
        assert state.power_ratio == pytest.approx(2.0)
        assert sum(state.capacities) == pytest.approx(500.0)


class TestAlarms:
    def test_initially_all_eligible(self):
        state = make_state()
        assert state.eligible_servers() == list(range(7))
        assert not state.all_alarmed

    def test_alarmed_server_ineligible(self):
        state = make_state()
        state.set_alarm(1.0, 3, True)
        assert not state.is_eligible(3)
        assert 3 not in state.eligible_servers()
        assert state.is_alarmed(3)

    def test_alarm_clears(self):
        state = make_state()
        state.set_alarm(1.0, 3, True)
        state.set_alarm(2.0, 3, False)
        assert state.is_eligible(3)
        assert not state.is_alarmed(3)

    def test_duplicate_alarm_signals_idempotent(self):
        state = make_state()
        state.set_alarm(1.0, 3, True)
        state.set_alarm(2.0, 3, True)
        state.set_alarm(3.0, 3, False)
        assert state.eligible_servers() == list(range(7))
        assert not state.all_alarmed

    def test_all_alarmed_falls_back_to_everyone(self):
        state = make_state()
        for server_id in range(7):
            state.set_alarm(1.0, server_id, True)
        assert state.all_alarmed
        # Requests must go somewhere: everything becomes eligible again.
        assert state.eligible_servers() == list(range(7))
        assert state.is_eligible(0)

    def test_partial_recovery_restores_normal_filtering(self):
        state = make_state()
        for server_id in range(7):
            state.set_alarm(1.0, server_id, True)
        state.set_alarm(2.0, 4, False)
        assert state.eligible_servers() == [4]
        assert not state.is_eligible(0)


class TestEstimatorAccess:
    def test_estimator_attached(self):
        estimator = OracleEstimator([0.5, 0.5])
        state = SchedulerState(ServerCluster.from_heterogeneity(20), estimator)
        assert state.estimator is estimator
        assert list(state.estimator.shares()) == [0.5, 0.5]
