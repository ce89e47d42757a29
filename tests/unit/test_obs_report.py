"""Unit tests for run reports and regression-gating bundle comparisons."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import save_run_artifacts
from repro.obs import compare_bundles, load_bundle, render_report
from repro.obs.report import build_report

CONFIG = SimulationConfig(
    policy="RR",
    duration=300.0,
    seed=5,
    total_clients=80,
    trace=True,
    trace_categories=("dns", "util", "alarm"),
)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """One real traced run saved as a bundle (shared by the module)."""
    directory = tmp_path_factory.mktemp("bundle")
    executor = ParallelExecutor(workers=1)
    result = executor.run_simulations([CONFIG])[0]
    save_run_artifacts(
        result,
        directory,
        extra={"wall_time": executor.last_stats.wall_time},
        workers=1,
    )
    return directory


def _copy_with_scaled_metric(source, destination, scale):
    """A bundle whose max-utilization samples are scaled by ``scale``."""
    destination.mkdir()
    for path in source.iterdir():
        destination.joinpath(path.name).write_bytes(path.read_bytes())
    result_path = destination / "run.json"
    data = json.loads(result_path.read_text())
    data["max_utilization_samples"] = [
        min(1.0, sample * scale)
        for sample in data["max_utilization_samples"]
    ]
    result_path.write_text(json.dumps(data))
    return destination


class TestLoadBundle:
    def test_loads_all_artifacts(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        assert bundle.stem == "run"
        assert bundle.result["policy"] == "RR"
        assert bundle.manifest["seed"] == 5
        assert bundle.trace_damage is None
        assert set(bundle.trace_counts) <= {"dns", "util", "alarm"}
        assert sum(bundle.trace_counts.values()) > 0

    def test_scalars(self, bundle_dir):
        scalars = load_bundle(bundle_dir).scalars()
        assert 0.0 < scalars["mean_max_utilization"] <= 1.0
        assert 0.0 <= scalars["prob_max_below_098"] <= 1.0
        assert scalars["wall_time"] > 0

    def test_truncated_trace_is_salvaged_not_fatal(
        self, bundle_dir, tmp_path
    ):
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        for path in bundle_dir.iterdir():
            damaged.joinpath(path.name).write_bytes(path.read_bytes())
        trace = damaged / "run.trace.jsonl"
        trace.write_bytes(trace.read_bytes()[:-20])
        bundle = load_bundle(damaged)
        assert bundle.trace_damage is not None
        assert sum(bundle.trace_counts.values()) > 0

    def test_damaged_result_is_rejected(self, bundle_dir, tmp_path):
        damaged = _copy_with_scaled_metric(bundle_dir, tmp_path / "damaged", 1.0)
        data = json.loads((damaged / "run.json").read_text())
        data["total_hits"] = "x"
        (damaged / "run.json").write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="'total_hits' must be int"):
            load_bundle(damaged)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_bundle(tmp_path / "nope")

    def test_ambiguous_stem_rejected(self, tmp_path):
        directory = tmp_path / "multi"
        directory.mkdir()
        (directory / "a.json").write_text("{}")
        (directory / "b.json").write_text("{}")
        with pytest.raises(ConfigurationError, match="stem"):
            load_bundle(directory)


class TestRenderReport:
    def test_markdown_sections(self, bundle_dir):
        text = render_report(load_bundle(bundle_dir))
        assert text.startswith("# Run report: RR (seed 5)")
        for heading in (
            "## Provenance",
            "## Headline metrics",
            "## Timelines",
            "## Metrics registry",
            "## Trace",
        ):
            assert heading in text

    def test_html_is_self_contained(self, bundle_dir):
        html = render_report(load_bundle(bundle_dir), fmt="html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "<table>" in html
        assert "Headline metrics" in html

    def test_unknown_format_rejected(self, bundle_dir):
        with pytest.raises(ConfigurationError):
            render_report(load_bundle(bundle_dir), fmt="pdf")

    def test_timelines_drawn_from_timeseries_metrics(self, bundle_dir):
        sections = {
            section.title: section
            for section in build_report(load_bundle(bundle_dir))
        }
        lines = sections["Timelines"].lines
        assert any("max utilization" in line for line in lines)
        assert any("assigned TTL" in line for line in lines)


class TestCompareBundles:
    def test_self_compare_passes(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        comparison = compare_bundles(bundle, bundle)
        assert comparison.passed
        assert comparison.regressions() == []
        assert comparison.environment_drift == []
        for delta in comparison.deltas:
            if delta.delta_pct is not None:
                assert delta.delta_pct == pytest.approx(0.0)

    def test_regression_detected_in_bad_direction(
        self, bundle_dir, tmp_path
    ):
        worse = _copy_with_scaled_metric(
            bundle_dir, tmp_path / "worse", scale=1.5
        )
        comparison = compare_bundles(
            load_bundle(bundle_dir), load_bundle(worse), threshold_pct=5.0
        )
        assert not comparison.passed
        names = {delta.name for delta in comparison.regressions()}
        assert "mean_max_utilization" in names

    def test_improvement_is_not_a_regression(self, bundle_dir, tmp_path):
        better = _copy_with_scaled_metric(
            bundle_dir, tmp_path / "better", scale=0.5
        )
        comparison = compare_bundles(
            load_bundle(bundle_dir), load_bundle(better), threshold_pct=5.0
        )
        deltas = {d.name: d for d in comparison.deltas}
        assert not deltas["mean_max_utilization"].regressed

    def test_wall_time_reported_but_not_gated_by_default(
        self, bundle_dir, tmp_path
    ):
        slower = tmp_path / "slower"
        slower.mkdir()
        for path in bundle_dir.iterdir():
            slower.joinpath(path.name).write_bytes(path.read_bytes())
        manifest_path = slower / "run.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["extra"]["wall_time"] *= 100
        manifest_path.write_text(json.dumps(manifest))
        bundle = load_bundle(bundle_dir)
        ungated = compare_bundles(bundle, load_bundle(slower))
        assert ungated.passed
        gated = compare_bundles(
            bundle, load_bundle(slower), gate_wall_time=True
        )
        assert not gated.passed
        assert [d.name for d in gated.regressions()] == ["wall_time"]

    def test_environment_drift_flagged(self, bundle_dir, tmp_path):
        moved = tmp_path / "moved"
        moved.mkdir()
        for path in bundle_dir.iterdir():
            moved.joinpath(path.name).write_bytes(path.read_bytes())
        manifest_path = moved / "run.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["environment"]["python"] = "2.7.18"
        manifest_path.write_text(json.dumps(manifest))
        comparison = compare_bundles(
            load_bundle(bundle_dir), load_bundle(moved)
        )
        assert any(
            line.startswith("python:")
            for line in comparison.environment_drift
        )
        assert "different environments" in comparison.render()

    def test_negative_threshold_rejected(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        with pytest.raises(ConfigurationError):
            compare_bundles(bundle, bundle, threshold_pct=-1.0)

    def test_render_formats(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        comparison = compare_bundles(bundle, bundle)
        markdown = comparison.render()
        assert "## Metric deltas" in markdown
        assert "## Verdict" in markdown
        html = comparison.render("html")
        assert "<table>" in html
