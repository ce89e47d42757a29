"""Unit tests for repro.core.estimator."""

import math

import pytest

from repro.core.estimator import MeasuredEstimator, OracleEstimator
from repro.errors import ConfigurationError
from repro.web.server import WebServer


class TestOracleEstimator:
    def test_returns_configured_shares(self):
        estimator = OracleEstimator([0.6, 0.3, 0.1])
        assert estimator.shares() == [0.6, 0.3, 0.1]

    def test_relative_weights_normalized_by_peak(self):
        estimator = OracleEstimator([0.6, 0.3, 0.1])
        assert estimator.relative_weights() == pytest.approx([1.0, 0.5, 1 / 6])

    def test_version_static(self):
        estimator = OracleEstimator([0.5, 0.5])
        assert estimator.version == 0
        estimator.shares()
        assert estimator.version == 0

    def test_domain_count(self):
        assert OracleEstimator([0.25] * 4).domain_count == 4

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            OracleEstimator([0.5, 0.6])

    def test_shares_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            OracleEstimator([1.5, -0.5])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            OracleEstimator([])

    @pytest.mark.parametrize(
        "shares", [[math.nan, math.nan], [0.5, math.nan], [math.inf, -math.inf]]
    )
    def test_non_finite_shares_rejected(self, shares):
        with pytest.raises(ConfigurationError, match="finite"):
            OracleEstimator(shares)

    def test_returns_copy(self):
        estimator = OracleEstimator([0.5, 0.5])
        estimator.shares()[0] = 99.0
        assert estimator.shares() == [0.5, 0.5]


class TestMeasuredEstimator:
    def make(self, env, servers=None, **kwargs):
        servers = servers if servers is not None else [WebServer(0, 100.0)]
        defaults = dict(domain_count=3, interval=10.0, smoothing=0.5)
        defaults.update(kwargs)
        return MeasuredEstimator(env, servers, **defaults), servers

    def test_uniform_prior_by_default(self, env):
        estimator, _ = self.make(env)
        assert estimator.shares() == pytest.approx([1 / 3] * 3)

    def test_custom_prior_normalized(self, env):
        estimator, _ = self.make(env, prior=[2.0, 1.0, 1.0])
        assert estimator.shares() == pytest.approx([0.5, 0.25, 0.25])

    def test_prior_length_must_match(self, env):
        with pytest.raises(ConfigurationError):
            self.make(env, prior=[1.0])

    def test_collection_moves_estimate_toward_observation(self, env):
        estimator, servers = self.make(env, smoothing=0.5)
        servers[0].offer(0.0, hits=90, domain_id=0)
        servers[0].offer(0.0, hits=10, domain_id=1)
        env.run(until=10.0)
        shares = estimator.shares()
        # EWMA of uniform prior (1/3 each) and observation (0.9, 0.1, 0).
        assert shares[0] == pytest.approx(0.5 * (1 / 3) + 0.5 * 0.9, rel=1e-6)
        assert shares[0] > shares[1] > shares[2]
        assert estimator.version == 1

    def test_quiet_interval_keeps_estimate(self, env):
        estimator, _ = self.make(env)
        env.run(until=30.0)
        assert estimator.shares() == pytest.approx([1 / 3] * 3)
        assert estimator.version == 0
        assert estimator.collections == 3

    def test_counters_drained_each_collection(self, env):
        estimator, servers = self.make(env)
        servers[0].offer(0.0, hits=50, domain_id=0)
        env.run(until=10.0)
        assert servers[0].domain_hits == {}

    def test_estimate_always_positive_and_normalized(self, env):
        estimator, servers = self.make(env, smoothing=1.0)
        servers[0].offer(0.0, hits=100, domain_id=0)
        env.run(until=10.0)
        shares = estimator.shares()
        assert all(share > 0 for share in shares)
        assert sum(shares) == pytest.approx(1.0)

    def test_aggregates_across_servers(self, env):
        servers = [WebServer(0, 100.0), WebServer(1, 100.0)]
        estimator, _ = self.make(env, servers=servers, smoothing=1.0)
        servers[0].offer(0.0, hits=30, domain_id=0)
        servers[1].offer(0.0, hits=70, domain_id=1)
        env.run(until=10.0)
        shares = estimator.shares()
        assert shares[1] > shares[0]

    def test_validation(self, env):
        with pytest.raises(ConfigurationError):
            self.make(env, domain_count=0)
        with pytest.raises(ConfigurationError):
            self.make(env, interval=0.0)
        with pytest.raises(ConfigurationError):
            self.make(env, smoothing=0.0)
        with pytest.raises(ConfigurationError):
            self.make(env, smoothing=1.5)
