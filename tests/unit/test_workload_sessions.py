"""Unit tests for repro.workload.sessions."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim.distributions import Constant, DiscreteUniform, Exponential, Geometric
from repro.workload.sessions import SessionModel


class TestDefaults:
    def test_default_distributions_match_table1(self):
        model = SessionModel()
        assert model.pages_per_session.mean == 20.0
        assert model.hits_per_page.mean == 10.0
        assert model.think_time.mean == 15.0

    def test_hit_rate_per_client(self):
        # 10 hits per page / 15 s think time = 2/3 hits per second.
        assert SessionModel().hit_rate_per_client == pytest.approx(2 / 3)

    def test_offered_load_matches_paper(self):
        # 500 clients on a 500 hits/s site -> 2/3 average utilization.
        model = SessionModel()
        assert model.offered_load(500, 500.0) == pytest.approx(2 / 3)

    def test_clients_for_utilization_inverts_offered_load(self):
        model = SessionModel()
        clients = model.clients_for_utilization(2 / 3, 500.0)
        assert clients == 500


class TestCustomization:
    def test_custom_distributions(self):
        model = SessionModel(
            pages_per_session=Geometric(5.0),
            hits_per_page=DiscreteUniform(1, 3),
            think_time=Exponential(10.0),
        )
        assert model.hit_rate_per_client == pytest.approx(0.2)

    def test_constant_think_time_allowed(self):
        model = SessionModel(think_time=Constant(10.0))
        assert model.hit_rate_per_client == pytest.approx(1.0)

    def test_invalid_pages_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionModel(pages_per_session=Constant(0.5))

    @pytest.mark.parametrize(
        "field", ["pages_per_session", "hits_per_page", "think_time"]
    )
    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, field, mean):
        # A distribution whose mean is not finite; Constant itself
        # refuses such values, so the model must check any other.
        class Degenerate(Constant):
            def __init__(self, value):
                self.value = value

        with pytest.raises(ConfigurationError):
            SessionModel(**{field: Degenerate(mean)})

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionModel().offered_load(10, 0.0)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            SessionModel().clients_for_utilization(0.0, 500.0)

    def test_clients_for_utilization_minimum_one(self):
        assert SessionModel().clients_for_utilization(1e-9, 500.0) == 1
