"""Integration tests for live run telemetry.

Three claims are enforced here:

* **Determinism parity** — attaching progress sinks (and running under
  several workers) produces cell-for-cell bit-identical results to a
  silent serial run: heartbeats observe the batch, they never perturb
  cell seeding.
* **Complete lifecycle coverage** — a progress JSONL log of an N-cell
  batch holds exactly one ``submit``, one ``lease`` and one winning
  ``complete`` span event per cell, bracketed by
  ``batch-begin``/``batch-end``, and reconciles as a fabric timeline.
* **Regression gating end to end** — ``repro report --compare`` exits
  zero comparing a bundle against itself and non-zero (under
  ``--fail-on-regression``) against a copy with a worsened
  max-utilization profile.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ParallelExecutor
from repro.experiments.grid import run_grid
from repro.obs import (
    FabricTimeline,
    JsonlProgressSink,
    TimeSeries,
    load_span_logs,
)

QUICK = SimulationConfig(policy="RR", duration=300.0, seed=17, total_clients=80)

GRID_AXES = {
    "policy": ["RR", "DAL"],
    "heterogeneity": [20, 35, 50, 65],
}


def _exact_metrics(result):
    return (
        result.policy,
        result.max_utilization_samples,
        result.mean_utilization_per_server,
        result.dns_resolutions,
        result.total_hits,
        result.total_sessions,
        result.mean_granted_ttl,
        result.metrics,
    )


class TestDeterminismParity:
    def test_progress_and_workers_do_not_change_results(self, tmp_path):
        silent = run_grid(QUICK, GRID_AXES, workers=1)
        sink = JsonlProgressSink(tmp_path / "progress.jsonl")
        observed = run_grid(
            QUICK,
            GRID_AXES,
            executor=ParallelExecutor(workers=4, progress=sink),
        )
        sink.close()
        assert len(silent) == len(observed) == 8
        for (params_a, result_a), (params_b, result_b) in zip(
            silent.cells, observed.cells
        ):
            assert params_a == params_b
            assert _exact_metrics(result_a) == _exact_metrics(result_b)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_log_has_exactly_one_started_and_finished_per_cell(
        self, tmp_path, workers
    ):
        log = tmp_path / "progress.jsonl"
        sink = JsonlProgressSink(log)
        run_grid(
            QUICK,
            GRID_AXES,
            executor=ParallelExecutor(workers=workers, progress=sink),
        )
        sink.close()
        events, skipped = load_span_logs([log])
        assert skipped == 0
        assert events[0].kind == "batch-begin"
        assert events[0].extra == {"cells": 8, "workers": workers}
        assert events[-1].kind == "batch-end"
        assert events[-1].extra["cells"] == 8
        for kind in ("submit", "lease"):
            cells = [e.cell for e in events if e.kind == kind]
            assert sorted(cells) == list(range(8)), kind
        won = [
            e.cell for e in events
            if e.kind == "complete" and e.extra["winner"]
        ]
        assert sorted(won) == list(range(8))
        labels = {e.extra["label"] for e in events if e.kind == "lease"}
        assert "policy=RR,heterogeneity=20" in labels
        assert FabricTimeline.from_events(events).reconcile().ok

    def test_timeseries_metrics_identical_across_workers(self):
        configs = [QUICK, QUICK.replace(policy="DAL")]
        serial = ParallelExecutor(workers=1).run_simulations(configs)
        parallel = ParallelExecutor(workers=2).run_simulations(configs)
        for a, b in zip(serial, parallel):
            for name in ("util.max", "dns.assigned_ttl",
                         "workload.control_fraction"):
                assert a.metrics[name] == b.metrics[name]
                assert a.metrics[name]["kind"] == "timeseries"
                assert a.metrics[name]["observations"] > 0


class TestBoundedSeries:
    def test_longer_run_same_budget(self):
        # A 10x longer signal fills the same budget-bounded series.
        budget = 64
        short, long = TimeSeries("s", budget), TimeSeries("l", budget)
        for i in range(500):
            short.record(float(i), 0.5)
        for i in range(5_000):
            long.record(float(i), 0.5)
        assert len(short.samples) < budget
        assert len(long.samples) < budget

    def test_simulation_series_stay_within_budget(self):
        from repro.experiments.simulation import run_simulation
        from repro.obs.metrics import TIMESERIES_BUDGET

        result = run_simulation(QUICK.replace(duration=1200.0))
        for name, value in result.metrics.items():
            if isinstance(value, dict) and value.get("kind") == "timeseries":
                assert len(value["samples"]) < TIMESERIES_BUDGET, name


class TestReportGateEndToEnd:
    def _make_bundle(self, directory):
        assert main([
            "trace", "RR", "--duration", "300", "--clients", "80",
            "--seed", "17", "--categories", "dns,util,alarm",
            "--out", str(directory),
        ]) == 0

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        self._make_bundle(bundle)
        code = main([
            "report", "--compare", str(bundle), str(bundle),
            "--fail-on-regression",
        ])
        assert code == 0
        assert "no gated metric regressed" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        self._make_bundle(bundle)
        worse = tmp_path / "worse"
        worse.mkdir()
        for path in bundle.iterdir():
            worse.joinpath(path.name).write_bytes(path.read_bytes())
        result_path = worse / "run.json"
        data = json.loads(result_path.read_text())
        data["max_utilization_samples"] = [
            min(1.0, sample * 1.2)
            for sample in data["max_utilization_samples"]
        ]
        result_path.write_text(json.dumps(data))
        code = main([
            "report", "--compare", str(bundle), str(worse),
            "--fail-on-regression", "--threshold", "5",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "mean_max_utilization" in captured.err

    def test_regression_without_flag_still_exits_zero(
        self, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        self._make_bundle(bundle)
        worse = tmp_path / "worse"
        worse.mkdir()
        for path in bundle.iterdir():
            worse.joinpath(path.name).write_bytes(path.read_bytes())
        result_path = worse / "run.json"
        data = json.loads(result_path.read_text())
        data["max_utilization_samples"] = [
            min(1.0, sample * 1.2)
            for sample in data["max_utilization_samples"]
        ]
        result_path.write_text(json.dumps(data))
        assert main(["report", "--compare", str(bundle), str(worse)]) == 0

    def test_single_bundle_report_to_file(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        self._make_bundle(bundle)
        out = tmp_path / "report.html"
        assert main([
            "report", str(bundle), "--format", "html",
            "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")


class TestProgressCli:
    def test_grid_progress_log_and_identical_table(self, tmp_path, capsys):
        argv = [
            "grid", "--rows", "policy=RR,DAL",
            "--cols", "heterogeneity=20,50",
            "--duration", "300", "--clients", "80",
        ]
        assert main(argv) == 0
        silent_table = capsys.readouterr().out
        log = tmp_path / "progress.jsonl"
        assert main(
            argv + ["--workers", "2", "--progress-log", str(log)]
        ) == 0
        observed = capsys.readouterr().out
        # The pivot table is identical; only the timing block differs.
        assert observed.startswith(silent_table.split("\n\n")[0])
        events, _ = load_span_logs([log])
        assert events[0].kind == "batch-begin"
        assert sum(
            e.kind == "complete" and e.extra["winner"] for e in events
        ) == 4

    def test_run_progress_renders_to_stderr(self, capsys):
        assert main([
            "run", "RR", "--duration", "300", "--clients", "80",
            "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "[progress]" in captured.err
        assert "cells 1/1" in captured.err
