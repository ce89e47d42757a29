"""Integration tests for the figure generators (plumbing, not fidelity).

These run heavily reduced figures (short durations, trimmed sweeps) to
verify structure: every series present, grids correct, values in range.
Fidelity against the paper is covered by the benchmark suite and by
tests/integration/test_paper_checks.py.
"""

import os

import pytest

from repro.cli import main
from repro.experiments import figures
from repro.experiments.config import PAPER_DURATION
from repro.obs.spans import BATCH_BEGIN, load_span_logs
from repro.experiments.figures import (
    FIG1_POLICIES,
    FIG2_POLICIES,
    FIGURES,
    default_duration,
    fig1,
    fig3,
    fig4,
    fig6,
    table1,
    table2,
)

SHORT = 400.0


class TestDefaultDuration:
    def test_quick_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_FIDELITY", raising=False)
        assert default_duration() == 3600.0

    def test_paper_fidelity_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_FIDELITY", "1")
        assert default_duration() == PAPER_DURATION


class TestCdfFigures:
    def test_fig1_structure(self):
        figure = fig1(duration=SHORT, seed=2, grid=[0.8, 0.9, 1.0])
        assert figure.figure_id == "fig1"
        assert [s.label for s in figure.series] == FIG1_POLICIES
        for series in figure.series:
            assert series.x == [0.8, 0.9, 1.0]
            assert all(0.0 <= y <= 1.0 for y in series.y)
            assert series.y == sorted(series.y)  # CDFs are monotone

    def test_y_at_accessor(self):
        figure = fig1(duration=SHORT, seed=2, grid=[0.9, 1.0])
        assert figure.y_at("RR", 1.0) >= figure.y_at("RR", 0.9)

    def test_series_by_label(self):
        figure = fig1(duration=SHORT, seed=2, grid=[1.0])
        assert set(figure.series_by_label()) == set(FIG1_POLICIES)


class TestSweepFigures:
    def test_fig3_structure(self):
        figure = fig3(duration=SHORT, seed=2, levels=[20, 65])
        assert [s.x for s in figure.series] == [[20.0, 65.0]] * len(
            figure.series
        )
        assert all(
            0.0 <= y <= 1.0 for series in figure.series for y in series.y
        )

    def test_fig4_sweeps_min_ttl(self):
        figure = fig4(duration=SHORT, seed=2, thresholds=[0.0, 120.0])
        assert figure.x_label == "Minimum TTL (sec)"
        assert figure.series[0].x == [0.0, 120.0]

    def test_fig6_sweeps_error(self):
        figure = fig6(duration=SHORT, seed=2, errors=[0.0, 0.3])
        assert figure.x_label == "Estimation Error %"
        assert len(figure.series) == 8

    def test_figure_registry_complete(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(1, 8)}


class TestCheckpointedFigure:
    """A sweep figure is one batch, so one checkpoint ledger: its cells
    are numbered once, policy-major, and a rerun reloads every one."""

    def test_fig4_reloads_and_equals_the_plain_figure(self, tmp_path):
        ledger = tmp_path / "ck"
        plain = ["figure", "fig4", "--duration", "120"]
        checkpointed = plain + [
            "--checkpoint-dir", str(ledger), "--checkpoint-every", "60"
        ]
        log = tmp_path / "progress.jsonl"
        assert main(checkpointed + [
            "--save", str(tmp_path / "a.json"), "--progress-log", str(log)
        ]) == 0
        events, _ = load_span_logs([log])
        assert [e.kind for e in events].count(BATCH_BEGIN) == 1
        assert len(list(ledger.glob("cell-*/run.json"))) == 25

        def files():
            return {
                path: (path.stat().st_mtime_ns, path.stat().st_size)
                for path in ledger.rglob("*")
            }

        written = files()
        assert main(checkpointed + ["--save", str(tmp_path / "a2.json")]) == 0
        assert files() == written  # every cell reloaded from its run.json
        assert main(plain + ["--save", str(tmp_path / "b.json")]) == 0
        expected = (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == expected
        assert (tmp_path / "a2.json").read_bytes() == expected


class TestTables:
    def test_table1_contains_key_parameters(self):
        pairs = dict(table1())
        assert pairs["Connected domains K"] == "20"
        assert pairs["Total capacity"] == "500 hits/s"

    def test_table2_levels(self):
        levels = table2()
        assert set(levels) == {20, 35, 50, 65}
        assert levels[65] == [1.0, 1.0, 0.8, 0.8, 0.35, 0.35, 0.35]
        assert 0 not in levels  # the homogeneous row is ours, not Table 2's
