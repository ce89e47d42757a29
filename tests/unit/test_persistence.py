"""Unit tests for repro.experiments.persistence (JSON round-trips)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.figures import FigureResult, Series
from repro.experiments.persistence import (
    config_from_dict,
    config_to_dict,
    figure_from_dict,
    figure_to_dict,
    load_json,
    result_from_dict,
    result_to_dict,
    save_json,
)

from .test_experiments_metrics import make_result


class TestConfigRoundTrip:
    def test_default_config(self):
        config = SimulationConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_nondefault_config(self):
        config = SimulationConfig(
            policy="DRR2-TTL/S_K",
            relative_capacities=(1.0, 0.5),
            workload_error=0.3,
            min_accepted_ttl=60.0,
            estimator="window",
            geography="clustered",
            seed=42,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_json_serializable(self):
        text = json.dumps(config_to_dict(SimulationConfig()))
        assert config_from_dict(json.loads(text)) == SimulationConfig()

    @pytest.mark.parametrize(
        "data, match",
        [
            ([1], "JSON object"),
            ({"bogus": 1}, "'bogus'"),
            ({"hits_per_page": 5}, "'hits_per_page' must be Tuple\\[int, int\\], got 5"),
            ({"hits_per_page": [5, "15"]}, "'hits_per_page' must be Tuple"),
            ({"duration": "600"}, "'duration' must be float"),
            ({"duration": 10**400}, "'duration' must be float"),
            ({"seed": True}, "'seed' must be int"),
            ({"trace_categories": "dns"}, "'trace_categories' must be Optional"),
        ],
    )
    def test_damaged_input_raises_configuration_error(self, data, match):
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict(data)

    def test_int_in_float_field_is_kept(self):
        config = config_from_dict({"duration": 600, "relative_capacities": [1, 2]})
        assert config_to_dict(config)["duration"] == 600
        assert config.relative_capacities == (1, 2)


class TestResultRoundTrip:
    def test_basic_round_trip(self):
        result = make_result([0.5, 0.9, 1.0])
        result.config = SimulationConfig(policy="RR")
        restored = result_from_dict(result_to_dict(result))
        assert restored.policy == result.policy
        assert restored.max_utilization_samples == result.max_utilization_samples
        assert restored.total_hits == result.total_hits
        assert restored.config == result.config
        assert restored.prob_max_below(0.98) == result.prob_max_below(0.98)

    def test_series_preserved(self):
        result = make_result([0.5])
        result.utilization_series = [(32.0, [0.5, 0.4])]
        restored = result_from_dict(result_to_dict(result))
        assert restored.utilization_series == [(32.0, [0.5, 0.4])]

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            result_from_dict({"kind": "something-else"})


class TestFigureRoundTrip:
    def test_round_trip(self):
        figure = FigureResult(
            figure_id="fig3",
            title="t",
            x_label="x",
            y_label="y",
            notes="n",
            series=[Series("A", [1.0, 2.0], [0.1, 0.2])],
        )
        restored = figure_from_dict(figure_to_dict(figure))
        assert restored.figure_id == "fig3"
        assert restored.series[0].label == "A"
        assert restored.series[0].y == [0.1, 0.2]
        assert restored.notes == "n"

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            figure_from_dict({"kind": "simulation_result"})


class TestFiles:
    def test_save_and_load_result(self, tmp_path):
        result = make_result([0.4, 0.8])
        path = save_json(result, tmp_path / "result.json")
        restored = load_json(path)
        assert restored.max_utilization_samples == [0.4, 0.8]

    def test_save_and_load_figure(self, tmp_path):
        figure = FigureResult(
            "figX", "t", "x", "y", [Series("A", [0.0], [1.0])]
        )
        restored = load_json(save_json(figure, tmp_path / "figure.json"))
        assert restored.figure_id == "figX"

    def test_save_and_load_config(self, tmp_path):
        config = SimulationConfig(policy="DAL", seed=77)
        restored = load_json(save_json(config, tmp_path / "config.json"))
        assert restored == config

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_json({"not": "supported"}, tmp_path / "x.json")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ConfigurationError):
            load_json(path)
