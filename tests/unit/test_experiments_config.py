"""Unit tests for repro.experiments.config."""

import dataclasses
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import PAPER_DURATION, SimulationConfig


class TestDefaults:
    def test_table1_defaults(self):
        config = SimulationConfig()
        assert config.domain_count == 20
        assert config.total_clients == 500
        assert config.mean_pages_per_session == 20.0
        assert config.hits_per_page == (5, 15)
        assert config.constant_ttl == 240.0
        assert config.duration == PAPER_DURATION == 5 * 3600.0
        assert config.heterogeneity == 20
        assert config.total_capacity == 500.0

    def test_list_hits_per_page_normalizes_to_a_tuple(self):
        # A JSON round trip hands back a list; the config must still
        # equal and hash like its tuple twin, and serialize the same.
        config = SimulationConfig(hits_per_page=[5, 15])
        assert config.hits_per_page == (5, 15)
        assert config == SimulationConfig()
        assert hash(config) == hash(SimulationConfig())
        assert json.dumps(dataclasses.asdict(config)) == json.dumps(
            dataclasses.asdict(SimulationConfig())
        )

    def test_offered_utilization_is_two_thirds(self):
        assert SimulationConfig().offered_utilization == pytest.approx(2 / 3)

    def test_describe_is_complete(self):
        pairs = dict(SimulationConfig().describe())
        assert pairs["Connected domains K"] == "20"
        assert pairs["Total clients"] == "500"
        assert "Zipf" in pairs["Client distribution"]
        assert pairs["Constant TTL"] == "240 s"


class TestFactories:
    def test_build_cluster_from_heterogeneity(self):
        cluster = SimulationConfig(heterogeneity=50).build_cluster()
        assert cluster.heterogeneity_percent == pytest.approx(50.0)

    def test_build_cluster_from_explicit_capacities(self):
        config = SimulationConfig(relative_capacities=(1.0, 0.5, 0.5))
        cluster = config.build_cluster()
        assert cluster.server_count == 3
        assert cluster.power_ratio == pytest.approx(2.0)

    def test_build_domains_zipf(self):
        domains = SimulationConfig().build_domains()
        assert domains.shares[0] > domains.shares[1]

    def test_build_domains_uniform(self):
        domains = SimulationConfig(uniform_domains=True).build_domains()
        assert domains.shares == pytest.approx([1 / 20] * 20)

    def test_build_session_model(self):
        model = SimulationConfig(mean_think_time=10.0).build_session_model()
        assert model.think_time.mean == 10.0

    def test_replace_returns_modified_copy(self):
        base = SimulationConfig()
        changed = base.replace(policy="DAL", seed=9)
        assert changed.policy == "DAL"
        assert changed.seed == 9
        assert base.policy == "RR"

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig().policy = "X"


class TestValidation:
    def test_unknown_heterogeneity_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(heterogeneity=42)

    def test_explicit_capacities_bypass_level_check(self):
        config = SimulationConfig(
            heterogeneity=42, relative_capacities=(1.0, 0.9)
        )
        assert config.build_cluster().server_count == 2

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(duration=100.0, warmup=100.0)

    def test_bad_values_rejected(self):
        for kwargs in (
            {"domain_count": 0},
            {"total_clients": 0},
            {"duration": 0.0},
            {"utilization_interval": 0.0},
            {"alarm_threshold": 0.0},
            {"alarm_threshold": 1.5},
            {"constant_ttl": 0.0},
            {"min_accepted_ttl": -1.0},
            {"workload_error": -0.1},
            {"estimator": "psychic"},
            {"hits_per_page": (0, 5)},
            {"hits_per_page": (10, 5)},
            {"ns_override_mode": "shrug"},
            {"zipf_exponent": -0.5},
            {"policy": "IDEAL", "zipf_exponent": -0.5},
        ):
            with pytest.raises(ConfigurationError):
                SimulationConfig(**kwargs)


#: Every float-valued field of the config, found from its default.
FLOAT_FIELDS = [
    spec.name
    for spec in dataclasses.fields(SimulationConfig)
    if isinstance(spec.default, float)
]


class TestNonFiniteFloats:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_rejected_by_name(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            SimulationConfig(**{name: value})
