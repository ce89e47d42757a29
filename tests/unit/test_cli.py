"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "DRR2-TTL/S_K", "--heterogeneity", "50", "--seed", "3"]
        )
        assert args.policy == "DRR2-TTL/S_K"
        assert args.heterogeneity == 50
        assert args.seed == 3

    def test_figure_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestCommands:
    def test_policies_lists_catalogue(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "DRR2-TTL/S_K" in out
        assert "RR" in out

    def test_table1(self, capsys):
        assert main(["table", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Connected domains K" in out

    def test_table2(self, capsys):
        assert main(["table", "table2"]) == 0
        out = capsys.readouterr().out
        assert "65%" in out
        assert "0.35" in out

    def test_run_quick_simulation(self, capsys):
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prob_max_below_098" in out

    def test_compare_quick(self, capsys):
        code = main(
            ["compare", "RR", "DRR2-TTL/S_K", "--duration", "300",
             "--clients", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DRR2-TTL/S_K" in out


class TestExtendedCommands:
    def test_run_with_sparkline(self, capsys):
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--sparkline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max utilization over time:" in out
        assert "overload episodes" in out or "no overload episodes" in out

    def test_sweep_command(self, capsys):
        code = main(
            ["sweep", "RR", "--param", "heterogeneity",
             "--values", "20,50", "--duration", "300", "--clients", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heterogeneity" in out
        assert "P(max<0.98)" in out

    def test_sweep_parses_float_values(self, capsys):
        code = main(
            ["sweep", "PRR2-TTL/K", "--param", "workload_error",
             "--values", "0.0,0.3", "--duration", "300", "--clients", "50"]
        )
        assert code == 0
        assert "workload_error" in capsys.readouterr().out

    def test_compare_paired(self, capsys):
        code = main(
            ["compare", "RR", "DRR2-TTL/S_K", "--duration", "300",
             "--clients", "50", "--paired", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "paired comparison" in out

    def test_window_estimator_accepted(self, capsys):
        code = main(
            ["run", "PRR2-TTL/K", "--duration", "300", "--clients", "50",
             "--estimator", "window"]
        )
        assert code == 0

    def test_run_save_json(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--save", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        from repro.experiments.persistence import load_json

        restored = load_json(out_path)
        assert restored.policy == "RR"

    def test_run_with_geography(self, capsys):
        code = main(
            ["run", "PROXIMITY", "--duration", "300", "--clients", "50",
             "--geography", "clustered"]
        )
        assert code == 0
        assert "prob_max_below_098" in capsys.readouterr().out

    def test_grid_command(self, capsys):
        code = main(
            ["grid", "--rows", "policy=RR,DAL",
             "--cols", "heterogeneity=20,50",
             "--duration", "300", "--clients", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy\\heterogeneity" in out
        assert "DAL" in out

    def test_grid_bad_axis_exits(self):
        with pytest.raises(SystemExit):
            main(["grid", "--rows", "nonsense", "--cols", "heterogeneity=20",
                  "--duration", "300"])

    def test_validate_command(self, capsys):
        code = main(["validate", "--duration", "600"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_run_trace_prints_observability(self, capsys):
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--trace", "dns,session"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace category" in out
        assert "dns" in out
        assert "dns.resolutions" in out  # metrics block

    def test_run_trace_save_writes_sidecars(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--trace", "all", "--save", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "r.trace.jsonl").exists()
        assert (tmp_path / "r.manifest.json").exists()
        from repro.obs import read_jsonl, read_manifest, record_from_dict

        assert read_jsonl(tmp_path / "r.trace.jsonl", record_from_dict)[0]
        assert read_manifest(tmp_path / "r.manifest.json")["policy"] == "RR"

    def test_trace_command_writes_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "bundle"
        code = main(
            ["trace", "RR", "--duration", "300", "--clients", "50",
             "--categories", "dns,util", "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "run.json").exists()
        assert (out_dir / "run.trace.jsonl").exists()
        assert (out_dir / "run.manifest.json").exists()
        out = capsys.readouterr().out
        assert "trace category" in out

    def test_trace_inspect_summarizes_existing_file(self, capsys, tmp_path):
        out_dir = tmp_path / "bundle"
        assert main(
            ["trace", "RR", "--duration", "300", "--clients", "50",
             "--out", str(out_dir)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["trace", "--inspect", str(out_dir / "run.trace.jsonl")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(total)" in out

    def test_trace_without_policy_or_inspect_errors(self, capsys):
        code = main(["trace"])
        assert code == 2
        assert "policy name is required" in capsys.readouterr().err

    def test_run_trace_rejects_unknown_category(self, capsys):
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--trace", "nonsense"]
        )
        assert code == 2
        assert "error: unknown trace categories" in capsys.readouterr().err

    def test_run_report(self, capsys):
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--report"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "headline metrics" in out
        assert "Jain index" in out


class TestResumeDamagedBundle:
    """``repro resume`` on damaged input exits 2 with ``error:``."""

    def test_non_object_checkpoint(self, capsys, tmp_path):
        (tmp_path / "checkpoint-000002.json").write_text("[1]\n")
        assert main(["resume", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_damaged_config_in_checkpoint(self, capsys, tmp_path):
        import repro
        from repro.sim.checkpoint import Checkpoint, state_digest, write_checkpoint

        config = {"bogus": 1}
        write_checkpoint(
            Checkpoint(
                sequence=1, time=60.0, dispatched=10, config=config,
                config_hash=state_digest(config), seed=1, every=60.0,
                state={}, digest=state_digest({}),
                engine_version=repro.__version__,
            ),
            tmp_path,
        )
        assert main(["resume", str(tmp_path)]) == 2
        assert "error: unknown config key 'bogus'" in capsys.readouterr().err


def _figure_json(directory):
    from repro.experiments.figures import FigureResult, Series
    from repro.experiments.persistence import save_json

    figure = FigureResult("figX", "t", "x", "y", [Series("A", [0.0], [1.0])])
    return str(save_json(figure, directory / "figure.json"))


class TestReproErrors:
    """A ``repro.errors`` failure exits 2 with one ``error:`` line on
    stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            lambda tmp: ["run", "RR", "--clients", "-5"],
            lambda tmp: ["run", "NOPE"],
            lambda tmp: ["report", str(tmp / "missing")],
            lambda tmp: ["trace", "--inspect", _figure_json(tmp)],
        ],
        ids=["bad-flag-value", "unknown-policy", "missing-bundle", "inspect-a-figure"],
    )
    def test_exits_2_with_an_error_line(self, argv, tmp_path, capsys):
        assert main(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
