"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import _bundle_fields, build_parser, main
from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, engine_manifest


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
             "--report"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Max utilization and overload episodes" in out
        assert "max utilization over time: " in out
        assert "overload episodes (>= 0.98)" in out

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

    def test_manifest_writers_agree_on_engine_fields(self, capsys, tmp_path):
        # A geography config falls back to the event engine: every
        # manifest writer must record that fact, not the engine asked for.
        from repro.obs import read_manifest

        args = ["run", "RR", "--duration", "300", "--geography",
                "clustered", "--trace", "dns"]
        assert main(args + ["--save", str(tmp_path / "r.json")]) == 0
        assert main(
            args + ["--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--checkpoint-every", "150"]
        ) == 0
        assert main(
            ["trace", "RR", "--duration", "300", "--geography", "clustered",
             "--categories", "dns", "--out", str(tmp_path / "bundle")]
        ) == 0
        manifests = [
            read_manifest(path)
            for path in (
                tmp_path / "r.manifest.json",
                tmp_path / "ckpt" / "run.manifest.json",
                tmp_path / "bundle" / "run.manifest.json",
            )
        ]
        fields = [
            (m["engine_mode"], m.get("extra", {}).get("engine_fallbacks"))
            for m in manifests
        ]
        assert fields == [("event", {"geography": 1})] * 3

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
        assert out.startswith("# Run report: RR (seed 1)")
        for heading in (
            "## Provenance",
            "## Headline metrics",
            "## Server balance",
            "## Warm-up (MSER-5)",
            "## Max utilization and overload episodes",
            "## Timelines",
            "## Metrics registry",
        ):
            assert heading in out
        assert "| Jain index |" in out

    def test_run_report_save_prints_what_report_prints(
        self, capsys, tmp_path
    ):
        bundle = tmp_path / "D"
        code = main(
            ["run", "RR", "--duration", "300", "--clients", "50",
             "--trace", "dns,util", "--report",
             "--save", str(bundle / "run.json")]
        )
        assert code == 0
        printed = capsys.readouterr()
        assert "[result saved to" in printed.err
        assert main(["report", str(bundle)]) == 0
        assert printed.out == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "RR", "--duration", "300", "--clients", "50"],
            ["figure", "fig1", "--duration", "300"],
        ],
        ids=["run", "figure"],
    )
    def test_save_creates_missing_directories(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "deeper" / "out.json"
        assert main(argv + ["--save", str(path)]) == 0
        from repro.experiments.persistence import load_json

        assert load_json(path) is not None
        assert f"saved to {path}]" in capsys.readouterr().out


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
            lambda tmp: ["run", "RR", "--checkpoint-every", "5"],
            lambda tmp: ["grid", "--rows", "nonsense", "--cols", "heterogeneity=20"],
        ],
        ids=["bad-flag-value", "unknown-policy", "missing-bundle", "inspect-a-figure",
             "checkpoint-every-without-dir", "grid-bad-axis"],
    )
    def test_exits_2_with_an_error_line(self, argv, tmp_path, capsys):
        assert main(argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


TRACE = dict(workload_source="trace", trace_rate=2.0)


class TestBundleEngineFields:
    """A one-run bundle's engine fields come from the config alone and
    equal those of a build of it, fallback keys in the same order."""

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            dict(hot_rotation_interval=60.0, hot_rotation_count=2),
            dict(client_address_caching=True),
            dict(geography="random"),
            TRACE,
            dict(TRACE, geography="clustered"),
            dict(
                hot_rotation_interval=60.0,
                client_address_caching=True,
                geography="random",
            ),
        ],
        ids=["default", "hot-rotation", "address-caching", "geography",
             "trace", "trace-geography", "combination"],
    )
    def test_match_a_build(self, changes):
        config = SimulationConfig(duration=300.0, **changes)
        info = Simulation(config).engine_info
        assert config.fluid_fallback_reasons() == list(info["fallbacks"])
        engine_mode, engine_extra = engine_manifest(info)
        fields = _bundle_fields(config, 1.5, None)
        extra = dict(fields["extra"])
        assert extra.pop("wall_time") == 1.5
        assert fields["engine_mode"] == engine_mode
        assert json.dumps(extra) == json.dumps(engine_extra)
