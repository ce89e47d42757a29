"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``run``
    Run one simulation and print its summary (``--sparkline`` adds a
    max-utilization timeline and overload episodes; ``--trace CATS``
    records the selected trace categories and prints the per-category
    record counts plus the metrics-registry block). With
    ``--checkpoint-dir DIR --checkpoint-every T`` the run snapshots its
    full model state into DIR every T simulated seconds and writes its
    artifact bundle there; ``--halt-at SIMTIME`` simulates a crash at a
    checkpoint boundary (exit code 3).
``resume``
    Resume an interrupted checkpointed run: replay deterministically to
    the last snapshot, verify its state digest bit-for-bit, continue to
    completion. The finished bundle is bit-identical to what the
    uninterrupted run would have written (see ``docs/CHECKPOINTING.md``).
``trace``
    Run one traced simulation and write its full observability bundle —
    result JSON, JSONL trace, provenance manifest — into a directory;
    or summarize an existing trace file with ``--inspect``.
``compare``
    Run several policies on the same scenario and print them side by
    side; ``--paired N`` adds a common-random-numbers paired comparison
    of the first two policies over N replications.
``sweep``
    Vary one configuration parameter for one policy and print
    ``Prob(MaxUtilization < 0.98)`` per value.
``grid``
    Full-factorial run over two parameters, rendered as a pivot table.
``validate``
    Run the model's internal consistency checks (see
    :mod:`repro.experiments.validation`).
``figure``
    Regenerate one of the paper's figures (fig1..fig7) as a text table or
    CSV.
``table``
    Print Table 1 (model parameters) or Table 2 (heterogeneity levels).
``report``
    Render a saved run bundle (``repro trace``/``save_run_artifacts``
    output) as a self-contained markdown or HTML report, or — with
    ``--compare A B`` — diff two bundles on the headline metrics and
    (with ``--fail-on-regression``) exit non-zero when the candidate
    regressed beyond ``--threshold`` percent.
``policies``
    List every policy name the registry knows.

``worker``
    ``repro worker serve --connect HOST:PORT`` turns this process into
    a dispatch worker agent: it pulls simulation cells leased by a
    coordinator running with ``--backend remote`` and streams
    heartbeats and results back. Start any number of them, on any mix
    of hosts.

Multi-cell commands (``compare``, ``sweep``, ``grid``, ``figure``)
accept ``--workers N`` to fan their independent simulations out over N
worker processes; outputs are bit-identical for any value (each cell's
seed is fixed before submission) and a timing block is printed whenever
N > 1. See ``docs/PERFORMANCE.md``.

Every simulating command also accepts ``--backend remote --listen
HOST:PORT``: instead of a local process pool, the command becomes a
coordinator that leases its cells to ``repro worker serve`` agents over
TCP — multi-host fan-out with lease-based crash tolerance, results
bit-identical to ``--workers 1`` regardless of worker count or crashes.
See ``docs/DISTRIBUTED.md``.

Every simulating command also accepts ``--engine-mode fastforward``:
the hybrid fluid/event engine (:mod:`repro.sim.fastforward`) that
batch-advances quiescent client wakes natively. Results, trajectories
and checkpoint digests are bit-identical to the reference ``event``
mode — the mode only changes wall-clock time — and ineligible
configurations fall back to reference event-stepping automatically
(the fallback reasons land in the provenance manifest). See
``docs/PERFORMANCE.md``.

Every simulating command also accepts ``--progress`` (a live terminal
progress line: completed/total cells, throughput, ETA, busy workers)
and ``--progress-log PATH`` (the batch's span events as JSONL, which
``repro fabric timeline`` reconstructs and reconciles);
both observe the run without perturbing it — results are identical
with or without them. See ``docs/OBSERVABILITY.md``.

They also accept ``--checkpoint-dir DIR --checkpoint-every T``: each
cell checkpoints into its own ``cell-NNNN/`` subdirectory, and rerunning
the same command over the same DIR reloads finished cells and resumes
interrupted ones from their last digest-verified snapshot — so a killed
grid restarts from where it was instead of from zero, with bit-identical
outputs. See ``docs/CHECKPOINTING.md``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Tuple

from .core.registry import available_policies
from .experiments.config import SimulationConfig
from .experiments.executor import ExecutionStats, ParallelExecutor
from .experiments.figures import FIGURES, table1, table2
from .experiments.reporting import (
    figure_to_csv,
    format_table,
    render_comparison,
    render_execution,
    render_figure,
    render_metrics,
    render_result,
    render_trace_counts,
)
from .experiments.runner import compare_policies
from .experiments.simulation import run_simulation
from .sim.tracing import TRACE_CATEGORIES


def _print_execution(
    stats: Optional[ExecutionStats], labels: Optional[List[str]] = None
) -> None:
    """Print the timing block for an explicitly parallel invocation."""
    if stats is not None and stats.workers > 1:
        print()
        print(render_execution(stats, labels=labels))


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--heterogeneity", type=int, default=20,
        help="heterogeneity level %% (Table 2: 0, 20, 35, 50, 65)",
    )
    parser.add_argument(
        "--duration", type=float, default=3600.0,
        help="simulated seconds (paper: 18000)",
    )
    parser.add_argument("--seed", type=int, default=1, help="master random seed")
    parser.add_argument(
        "--domains", type=int, default=20, help="connected client domains K"
    )
    parser.add_argument(
        "--clients", type=int, default=500, help="total number of clients"
    )
    parser.add_argument(
        "--min-ttl", type=float, default=0.0,
        help="non-cooperative NS minimum accepted TTL (seconds)",
    )
    parser.add_argument(
        "--error", type=float, default=0.0,
        help="hidden-load estimation error as a fraction (e.g. 0.3)",
    )
    parser.add_argument(
        "--estimator", choices=("oracle", "measured", "window"),
        default="oracle", help="hidden-load estimator",
    )
    parser.add_argument(
        "--geography", choices=("none", "random", "clustered"),
        default="none",
        help="attach a geographic layout (enables PROXIMITY/GEO-HYBRID "
        "and network-RTT metrics)",
    )
    parser.add_argument(
        "--population", choices=("auto", "eager", "lazy"), default="auto",
        help="client-population implementation: 'eager' (one generator "
        "process per client), 'lazy' (sharded flat-slot population; "
        "bounded memory at large scale), or 'auto' (lazy at >= 100k "
        "clients); all choices are bit-identical",
    )
    parser.add_argument(
        "--workload-source", choices=("synthetic", "trace"),
        default="synthetic",
        help="'synthetic' (closed client population, the paper's model) "
        "or 'trace' (open arrival process replaying a rate schedule)",
    )
    parser.add_argument(
        "--trace-profile", choices=("constant", "ramp", "diurnal", "replay"),
        default="constant",
        help="arrival-rate profile of the trace workload source",
    )
    parser.add_argument(
        "--trace-rate", type=float, default=0.0,
        help="mean session arrival rate in sessions/s (0 = derive the "
        "rate matching --clients synthetic clients)",
    )
    parser.add_argument(
        "--trace-amplitude", type=float, default=0.5,
        help="relative rate swing of the ramp/diurnal profiles, in [0, 1]",
    )
    parser.add_argument(
        "--trace-period", type=float, default=3600.0,
        help="period of the diurnal profile in seconds",
    )
    parser.add_argument(
        "--trace-path", metavar="PATH", default=None,
        help="JSONL rate-trace file for --trace-profile replay "
        "(lines: {\"t\": seconds, \"rate\": sessions/s})",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="also write the result as JSON to PATH",
    )
    _add_workers_argument(parser)


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for multi-cell commands (default 1 = "
        "serial; results are identical for any value)",
    )
    parser.add_argument(
        "--engine-mode", choices=("event", "fastforward"), default="event",
        help="dispatch engine: 'event' (reference) or 'fastforward' "
        "(hybrid fluid/event batch-advance; bit-identical results, "
        "faster on eligible configs, automatic per-config fallback "
        "otherwise)",
    )
    parser.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=False,
        help="show a live progress line (cells done, cells/s, ETA, busy "
        "workers) on stderr; results are identical either way",
    )
    parser.add_argument(
        "--progress-log", metavar="PATH", default=None,
        help="write the batch's cell-lifecycle span events to PATH as "
        "JSONL (tail-able while the batch runs; 'repro fabric "
        "timeline' reads it)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write periodic checkpoints into DIR (one cell-NNNN/ "
        "subdirectory per cell for multi-cell commands); rerunning the "
        "same command over the same DIR reloads finished cells and "
        "resumes interrupted ones from their last verified snapshot, "
        "with results bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=0.0, metavar="T",
        help="checkpoint cadence in simulated seconds (required with "
        "--checkpoint-dir)",
    )
    parser.add_argument(
        "--backend", choices=("local", "remote"), default="local",
        help="where cells execute: 'local' (this machine's process "
        "pool, the default) or 'remote' (lease cells to 'repro worker "
        "serve' agents over TCP; results are bit-identical either way)",
    )
    parser.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:7571",
        help="with --backend remote: the address the coordinator "
        "listens on for workers (port 0 picks an ephemeral port; "
        "default: 127.0.0.1:7571)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=30.0, metavar="SECONDS",
        help="with --backend remote: seconds a leased cell may go "
        "without a worker heartbeat before it is re-leased "
        "(default: 30)",
    )
    parser.add_argument(
        "--span-log", metavar="PATH", default=None,
        help="with --backend remote: append coordinator cell-lifecycle "
        "span events (submit/lease/heartbeat/complete/expire) to PATH "
        "as JSONL; feed it — merged with worker span logs — to 'repro "
        "fabric timeline'. Off by default; results are bit-identical "
        "either way",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="with --backend remote: serve the coordinator's /metrics "
        "(Prometheus text) and /healthz endpoints on PORT (0 picks an "
        "ephemeral port); off by default",
    )


def _checkpoint_options(
    args: argparse.Namespace,
) -> Tuple[Optional[str], float]:
    """Validated ``(--checkpoint-dir, --checkpoint-every)`` pair."""
    directory = getattr(args, "checkpoint_dir", None)
    every = getattr(args, "checkpoint_every", 0.0)
    if directory is not None and every <= 0:
        raise SystemExit(
            "error: --checkpoint-dir requires --checkpoint-every T (> 0 "
            "simulated seconds)"
        )
    if directory is None and every > 0:
        raise SystemExit(
            "error: --checkpoint-every requires --checkpoint-dir DIR"
        )
    if directory is None and getattr(args, "halt_at", None) is not None:
        raise SystemExit("error: --halt-at requires --checkpoint-dir DIR")
    return directory, every


def _listen_hint(address) -> None:
    """Tell the operator where workers should connect (stderr)."""
    host, port = address
    print(
        f"[dispatch] coordinator listening on {host}:{port} — start "
        f"workers with: repro worker serve --connect {host}:{port}",
        file=sys.stderr,
    )


def _executor(args: argparse.Namespace, progress, workers=None):
    """The executor a simulating command asked for, flags applied."""
    directory, every = _checkpoint_options(args)
    backend = getattr(args, "backend", "local")
    return ParallelExecutor(
        workers=getattr(args, "workers", 1) if workers is None else workers,
        progress=progress,
        checkpoint_dir=directory,
        checkpoint_every=every,
        engine_mode=getattr(args, "engine_mode", "event"),
        backend=backend,
        listen=getattr(args, "listen", None),
        lease_timeout=getattr(args, "lease_timeout", 30.0),
        on_listen=_listen_hint if backend == "remote" else None,
        span_log=getattr(args, "span_log", None),
        metrics_port=getattr(args, "metrics_port", None),
    )


def _progress_sink(args: argparse.Namespace):
    """The progress sink the flags ask for, or ``None`` for silence."""
    sinks = []
    if getattr(args, "progress", False):
        from .obs.progress import TerminalProgressRenderer

        sinks.append(TerminalProgressRenderer())
    if getattr(args, "progress_log", None):
        from .obs.progress import JsonlProgressSink

        sinks.append(JsonlProgressSink(args.progress_log))
    if not sinks:
        return None
    if len(sinks) == 1:
        return sinks[0]
    from .obs.progress import TeeProgressSink

    return TeeProgressSink(sinks)


def _parse_trace_categories(text: str) -> Optional[Tuple[str, ...]]:
    """``"dns,alarm"`` -> ``("dns", "alarm")``; ``"all"`` -> ``None``."""
    if text.strip().lower() == "all":
        return None
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _print_observability(result) -> None:
    """Print the trace-count and metrics blocks of a traced run."""
    if result.trace is not None:
        print()
        print(
            render_trace_counts(
                result.trace_category_counts(), len(result.trace)
            )
        )
    if result.metrics:
        print()
        print(render_metrics(result.metrics))


def _scenario_config(
    args: argparse.Namespace, policy: str, **extra
) -> SimulationConfig:
    return SimulationConfig(
        policy=policy,
        heterogeneity=args.heterogeneity,
        duration=args.duration,
        seed=args.seed,
        domain_count=args.domains,
        total_clients=args.clients,
        min_accepted_ttl=args.min_ttl,
        workload_error=args.error,
        estimator=args.estimator,
        geography=args.geography,
        population=getattr(args, "population", "auto"),
        workload_source=getattr(args, "workload_source", "synthetic"),
        trace_profile=getattr(args, "trace_profile", "constant"),
        trace_rate=getattr(args, "trace_rate", 0.0),
        trace_amplitude=getattr(args, "trace_amplitude", 0.5),
        trace_period=getattr(args, "trace_period", 3600.0),
        trace_path=getattr(args, "trace_path", None),
        **extra,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Adaptive-TTL DNS load balancing for heterogeneous web servers "
            "(reproduction of Colajanni, Cardellini & Yu, ICDCS 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one simulation")
    run_parser.add_argument("policy", help="policy name, e.g. DRR2-TTL/S_K")
    run_parser.add_argument(
        "--sparkline", action="store_true",
        help="print a max-utilization timeline and overload episodes",
    )
    run_parser.add_argument(
        "--report", action="store_true",
        help="print the full analysis dossier instead of the summary",
    )
    run_parser.add_argument(
        "--trace", metavar="CATEGORIES", default=None,
        help="record a trace: comma-separated categories "
        f"({', '.join(TRACE_CATEGORIES)}) or 'all'; prints the "
        "per-category counts and the metrics block, and --save then also "
        "writes a .trace.jsonl and .manifest.json next to the result",
    )
    run_parser.add_argument(
        "--halt-at", type=float, default=None, metavar="SIMTIME",
        help="simulate a crash: stop (exit code 3) at the first "
        "checkpoint boundary at or past SIMTIME simulated seconds, "
        "leaving the checkpoints for 'repro resume' (requires "
        "--checkpoint-dir)",
    )
    _add_scenario_arguments(run_parser)

    resume_parser = sub.add_parser(
        "resume",
        help="resume an interrupted checkpointed run (replays to the "
        "last snapshot, verifies its digest bit-for-bit, continues)",
    )
    resume_parser.add_argument(
        "bundle",
        help="checkpoint directory of the interrupted run (the "
        "--checkpoint-dir of 'repro run')",
    )
    resume_parser.add_argument(
        "--halt-at", type=float, default=None, metavar="SIMTIME",
        help="simulate another crash at the first checkpoint boundary "
        "at or past SIMTIME (exit code 3)",
    )
    resume_parser.add_argument(
        "--engine-mode", choices=("event", "fastforward"), default=None,
        help="dispatch engine for the resumed run (default: the mode "
        "the checkpoint records; requesting a different mode is "
        "refused by name)",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run one traced simulation and write its observability "
        "bundle (result + JSONL trace + provenance manifest)",
    )
    trace_parser.add_argument(
        "policy", nargs="?", default=None,
        help="policy name (required unless --inspect is used)",
    )
    trace_parser.add_argument(
        "--categories", metavar="CATEGORIES", default="all",
        help="comma-separated trace categories "
        f"({', '.join(TRACE_CATEGORIES)}) or 'all' (default)",
    )
    trace_parser.add_argument(
        "--out", metavar="DIR", default="repro-trace",
        help="output directory for the bundle (default: ./repro-trace)",
    )
    trace_parser.add_argument(
        "--inspect", metavar="FILE", default=None,
        help="summarize an existing .trace.jsonl instead of running",
    )
    _add_scenario_arguments(trace_parser)

    compare_parser = sub.add_parser("compare", help="compare several policies")
    compare_parser.add_argument(
        "policy", nargs="+", help="policy names to compare"
    )
    compare_parser.add_argument(
        "--paired", type=int, default=0, metavar="N",
        help="also run a paired comparison of the first two policies "
        "over N common-random-numbers replications",
    )
    _add_scenario_arguments(compare_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="vary one parameter for one policy"
    )
    sweep_parser.add_argument("policy", help="policy name")
    sweep_parser.add_argument(
        "--param", required=True,
        help="SimulationConfig field to vary (e.g. heterogeneity, "
        "min_accepted_ttl, workload_error, total_clients)",
    )
    sweep_parser.add_argument(
        "--values", required=True,
        help="comma-separated values (numbers parsed automatically)",
    )
    _add_scenario_arguments(sweep_parser)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("figure_id", choices=sorted(FIGURES))
    figure_parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per point (default: 3600, or 18000 with "
        "REPRO_PAPER_FIDELITY=1)",
    )
    figure_parser.add_argument("--seed", type=int, default=1)
    figure_parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a text table"
    )
    figure_parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="also write the figure as JSON to PATH",
    )
    _add_workers_argument(figure_parser)

    table_parser = sub.add_parser("table", help="print a paper table")
    table_parser.add_argument("table_id", choices=("table1", "table2"))
    _add_workers_argument(table_parser)  # tables are static data; a no-op

    report_parser = sub.add_parser(
        "report",
        help="render a saved run bundle as a report, or diff two "
        "bundles with a regression gate",
    )
    report_parser.add_argument(
        "bundle", nargs="+",
        help="bundle directory written by 'repro trace' or "
        "save_run_artifacts (two directories with --compare: "
        "baseline then candidate)",
    )
    report_parser.add_argument(
        "--compare", action="store_true",
        help="diff two bundles (baseline candidate) instead of "
        "rendering one",
    )
    report_parser.add_argument(
        "--format", choices=("markdown", "html"), default="markdown",
        help="output format (default: markdown)",
    )
    report_parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report to PATH instead of stdout",
    )
    report_parser.add_argument(
        "--stem", default=None,
        help="bundle file stem (default: auto-detected, 'run' for "
        "'repro trace' bundles)",
    )
    report_parser.add_argument(
        "--threshold", type=float, default=5.0, metavar="PCT",
        help="regression threshold in percent for --compare "
        "(default: 5.0)",
    )
    report_parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="with --compare: exit non-zero when any gated metric "
        "regressed beyond the threshold",
    )
    report_parser.add_argument(
        "--gate-wall-time", action="store_true",
        help="with --compare: include wall time in the regression gate "
        "(off by default; it is hardware-dependent)",
    )

    grid_parser = sub.add_parser(
        "grid", help="full-factorial run over two parameters"
    )
    grid_parser.add_argument(
        "--rows", required=True, metavar="FIELD=V1,V2,...",
        help="row axis, e.g. policy=RR,PRR2-TTL/K,DRR2-TTL/S_K",
    )
    grid_parser.add_argument(
        "--cols", required=True, metavar="FIELD=V1,V2,...",
        help="column axis, e.g. heterogeneity=20,35,50,65",
    )
    _add_scenario_arguments(grid_parser)

    worker_parser = sub.add_parser(
        "worker",
        help="dispatch worker agent for '--backend remote' commands",
    )
    worker_sub = worker_parser.add_subparsers(
        dest="worker_command", required=True
    )
    serve_parser = worker_sub.add_parser(
        "serve",
        help="pull and execute cells leased by a remote-backend "
        "coordinator, reconnecting between batches",
    )
    serve_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (the --listen of the coordinating "
        "command)",
    )
    serve_parser.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="SECONDS",
        help="exit after this long without a coordinator answering "
        "(default: 10; exit status 0 if any cells were served, 1 if "
        "no coordinator was ever reached)",
    )
    serve_parser.add_argument(
        "--id", dest="worker_id", default=None, metavar="NAME",
        help="worker name recorded in rosters and provenance manifests "
        "(default: host:pid)",
    )
    serve_parser.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="chaos hook for crash-tolerance tests: after completing N "
        "cells, take one more lease and die mid-cell without "
        "cleanup (exit status 17)",
    )
    serve_parser.add_argument(
        "--span-log", metavar="PATH", default=None,
        help="append this worker's span events (execute/finish/"
        "result-sent, with lease attempt numbers) to PATH as JSONL "
        "for 'repro fabric timeline'",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve this worker's /metrics (leases held, cells/s, "
        "heartbeat RTT, RSS) and /healthz endpoints on PORT (0 picks "
        "an ephemeral port; the bound address is logged)",
    )
    serve_parser.add_argument(
        "--crash-dir", metavar="DIR", default=None,
        help="crash forensics: keep a ring buffer of the last span "
        "events and flush it to DIR/crash-<worker>.jsonl on abnormal "
        "exit (SIGTERM, unhandled exception, or the --crash-after "
        "chaos hook)",
    )
    serve_parser.add_argument(
        "--span-ring", type=int, default=None, metavar="N",
        help="ring buffer size for --crash-dir (default: 512)",
    )

    fabric_parser = sub.add_parser(
        "fabric",
        help="observe a remote-backend run: live status and post-hoc "
        "timelines",
    )
    fabric_sub = fabric_parser.add_subparsers(
        dest="fabric_command", required=True
    )
    status_parser = fabric_sub.add_parser(
        "status",
        help="scrape a live /metrics endpoint (coordinator or worker) "
        "and print its health and metric samples",
    )
    status_parser.add_argument(
        "endpoint", metavar="HOST:PORT",
        help="a --metrics-port endpoint to scrape",
    )
    status_parser.add_argument(
        "--raw", action="store_true",
        help="print the raw Prometheus exposition text instead of the "
        "parsed summary",
    )
    timeline_parser = fabric_sub.add_parser(
        "timeline",
        help="reconstruct per-cell timelines from span logs (merge the "
        "coordinator's --span-log with any worker --span-log files), "
        "reconcile the lease ledger, and print per-worker lanes with "
        "re-lease annotations and a straggler summary",
    )
    timeline_parser.add_argument(
        "span_logs", nargs="+", metavar="SPANS.jsonl",
        help="span log files to merge (coordinator and/or workers; "
        "crash-*.jsonl ring flushes and --progress-log files work "
        "too)",
    )
    timeline_parser.add_argument(
        "--run", default=None, metavar="ID",
        help="batch run id to reconstruct (default: the latest run "
        "in the logs; use 'repro fabric timeline --list-runs' to see "
        "all)",
    )
    timeline_parser.add_argument(
        "--list-runs", action="store_true",
        help="list the run ids present in the span logs and exit",
    )
    timeline_parser.add_argument(
        "--stragglers", type=int, default=5, metavar="N",
        help="slowest-cells rows in the straggler table (default: 5)",
    )

    validate_parser = sub.add_parser(
        "validate", help="run the model's internal consistency checks"
    )
    validate_parser.add_argument(
        "--duration", type=float, default=3600.0,
        help="simulated seconds for the validation run",
    )
    validate_parser.add_argument("--seed", type=int, default=1)

    sub.add_parser("policies", help="list known policy names")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    progress = _progress_sink(args)
    try:
        return _run_command(args, progress)
    finally:
        if progress is not None:
            progress.close()


def _fabric_command(args: argparse.Namespace) -> int:
    """``repro fabric status|timeline`` — observe a dispatched run."""
    if args.fabric_command == "status":
        import json as json_module
        from urllib.error import URLError

        from .obs.export import parse_prom_text
        from .obs.http import scrape_endpoint

        try:
            health_text = scrape_endpoint(args.endpoint, path="/healthz")
            metrics_text = scrape_endpoint(args.endpoint, path="/metrics")
        except (OSError, URLError) as exc:
            print(
                f"error: cannot scrape {args.endpoint}: {exc}",
                file=sys.stderr,
            )
            return 1
        if args.raw:
            print(metrics_text, end="")
            return 0
        health = json_module.loads(health_text)
        role = health.pop("role", "unknown")
        status = health.pop("status", "?")
        print(f"{role} at {args.endpoint}: {status}")
        for key in sorted(health):
            print(f"  {key}: {health[key]}")
        exposition = parse_prom_text(metrics_text)
        print()
        for name in sorted(exposition.samples):
            kind = exposition.types.get(name.split("{")[0], "")
            suffix = f"  ({kind})" if kind else ""
            print(f"  {name} = {exposition.samples[name]:g}{suffix}")
        return 0

    # timeline
    from .obs.spans import (
        FabricTimeline,
        load_span_logs,
        render_fabric_timeline,
    )

    events, torn = load_span_logs(args.span_logs)
    if torn:
        print(
            f"[salvage: skipped {torn} torn span line(s)]", file=sys.stderr
        )
    if args.list_runs:
        for run in FabricTimeline.runs(events):
            print(run)
        return 0
    timeline = FabricTimeline.from_events(events, run=args.run)
    if timeline.run is None:
        print("error: no run ids in the given span logs", file=sys.stderr)
        return 1
    reconciliation = timeline.reconcile()
    print(
        render_fabric_timeline(
            timeline, reconciliation, stragglers=args.stragglers
        )
    )
    return 0 if reconciliation.ok else 2


def _run_command(args: argparse.Namespace, progress) -> int:
    if args.command == "worker":
        from .experiments.dispatch import parse_address, serve
        from .obs.spans import DEFAULT_RING_SIZE

        return serve(
            parse_address(args.connect),
            connect_timeout=args.connect_timeout,
            worker_id=args.worker_id,
            crash_after=args.crash_after,
            log=lambda message: print(message, file=sys.stderr),
            span_log=args.span_log,
            metrics_port=args.metrics_port,
            span_ring=(
                args.span_ring
                if args.span_ring is not None
                else DEFAULT_RING_SIZE
            ),
            crash_dir=args.crash_dir,
        )

    if args.command == "fabric":
        return _fabric_command(args)

    if args.command == "run":
        traced = args.trace is not None
        config = _scenario_config(
            args,
            args.policy,
            keep_utilization_series=args.sparkline or args.report,
            trace=traced,
            trace_categories=(
                _parse_trace_categories(args.trace) if traced else None
            ),
        )
        checkpoint_dir, checkpoint_every = _checkpoint_options(args)
        if getattr(args, "backend", "local") == "remote":
            if args.halt_at is not None:
                raise SystemExit(
                    "error: --halt-at simulates a local crash; it does "
                    "not combine with --backend remote (kill a worker "
                    "instead — the lease protocol recovers)"
                )
            executor = _executor(args, progress, workers=1)
            result = executor.run_simulations(
                [config], labels=[args.policy]
            )[0]
            if checkpoint_dir is not None:
                print(
                    f"[checkpointed bundle written to "
                    f"{checkpoint_dir}/cell-0000]"
                )
        elif checkpoint_dir is not None:
            from .experiments.checkpointing import run_with_checkpoints

            result = run_with_checkpoints(
                config,
                every=checkpoint_every,
                directory=checkpoint_dir,
                halt_at=args.halt_at,
                engine_mode=args.engine_mode,
            )
            if result is None:
                print(
                    f"[halted at the first checkpoint past simulated "
                    f"t={args.halt_at:g}s; continue with: "
                    f"repro resume {checkpoint_dir}]"
                )
                return 3
            print(f"[checkpointed bundle written to {checkpoint_dir}]")
        elif progress is not None:
            executor = ParallelExecutor(
                workers=1, progress=progress, engine_mode=args.engine_mode
            )
            result = executor.run_simulations(
                [config], labels=[args.policy]
            )[0]
        else:
            result = run_simulation(config, engine_mode=args.engine_mode)
        if args.report:
            from .analysis import full_report

            print(full_report(result))
        else:
            print(render_result(result))
        if traced:
            _print_observability(result)
        if args.save:
            from .experiments.persistence import save_json

            path = save_json(result, args.save)
            print(f"[result saved to {path}]")
            if traced:
                from .obs import record_to_dict, write_jsonl, write_manifest

                base = (
                    path.with_suffix("") if path.suffix == ".json" else path
                )
                trace_path = write_jsonl(
                    f"{base}.trace.jsonl", map(record_to_dict, result.trace)
                )
                manifest_path = write_manifest(
                    config,
                    pathlib.Path(f"{base}.manifest.json"),
                    engine_mode=args.engine_mode,
                )
                print(f"[trace saved to {trace_path}]")
                print(f"[manifest saved to {manifest_path}]")
        if args.sparkline:
            from .analysis import max_series, overload_episodes, sparkline

            values = [value for _, value in max_series(result)]
            print()
            print(f"max utilization over time: {sparkline(values)}")
            episodes = overload_episodes(result, threshold=0.98)
            if episodes:
                print(f"overload episodes (>= 0.98): {len(episodes)}")
                for start, end, intervals in episodes[:10]:
                    print(
                        f"  t={start:8.0f}s .. {end:8.0f}s "
                        f"({intervals} intervals)"
                    )
                if len(episodes) > 10:
                    print(f"  ... and {len(episodes) - 10} more")
            else:
                print("no overload episodes (>= 0.98)")
        return 0

    if args.command == "resume":
        from .errors import CheckpointError
        from .experiments.checkpointing import resume_run

        try:
            result = resume_run(
                args.bundle,
                halt_at=args.halt_at,
                engine_mode=args.engine_mode,
            )
        except CheckpointError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if result is None:
            print(
                f"[halted again at the first checkpoint past simulated "
                f"t={args.halt_at:g}s; continue with: "
                f"repro resume {args.bundle}]"
            )
            return 3
        print(render_result(result))
        _print_observability(result)
        print(f"[completed bundle written to {args.bundle}]")
        return 0

    if args.command == "trace":
        from .obs import category_counts, read_jsonl, record_from_dict

        if args.inspect:
            records, _ = read_jsonl(args.inspect, record_from_dict)
            print(render_trace_counts(category_counts(records), len(records)))
            return 0
        if not args.policy:
            print("error: a policy name is required (or use --inspect)",
                  file=sys.stderr)
            return 2
        config = _scenario_config(
            args,
            args.policy,
            trace=True,
            trace_categories=_parse_trace_categories(args.categories),
        )
        executor = _executor(args, progress, workers=1)
        result = executor.run_simulations([config], labels=[args.policy])[0]
        from .experiments.persistence import save_run_artifacts

        paths = save_run_artifacts(
            result,
            args.out,
            extra={
                "command": "trace",
                "categories": args.categories,
                "wall_time": executor.last_stats.wall_time,
            },
            workers=1,
            engine_mode=args.engine_mode,
            dispatch=executor.dispatch_info(),
        )
        print(render_result(result))
        _print_observability(result)
        print()
        for artifact, path in sorted(paths.items()):
            print(f"[{artifact} saved to {path}]")
        return 0

    if args.command == "compare":
        base = _scenario_config(args, args.policy[0])
        executor = _executor(args, progress)
        results = compare_policies(base, args.policy, executor=executor)
        print(render_comparison(results))
        _print_execution(executor.last_stats, labels=list(args.policy))
        if args.paired and len(args.policy) >= 2:
            from .analysis import paired_comparison

            comparison = paired_comparison(
                base, args.policy[0], args.policy[1],
                replications=args.paired,
            )
            print()
            print(f"paired comparison ({args.paired} replications):")
            print(f"  {comparison}")
        return 0

    if args.command == "sweep":
        def parse_value(text: str):
            for cast in (int, float):
                try:
                    return cast(text)
                except ValueError:
                    continue
            return text

        values = [parse_value(v) for v in args.values.split(",") if v]
        base = _scenario_config(args, args.policy)
        from .experiments.runner import sweep as run_sweep

        executor = _executor(args, progress)
        rows = [
            (value, f"{metric:.3f}", f"{result.mean_max_utilization:.3f}")
            for value, metric, result in run_sweep(
                base, args.param, values, executor=executor
            )
        ]
        print(
            format_table(
                [args.param, "P(max<0.98)", "mean max util"], rows
            )
        )
        _print_execution(
            executor.last_stats,
            labels=[f"{args.param}={value}" for value in values],
        )
        return 0

    if args.command == "figure":
        figure = FIGURES[args.figure_id](
            duration=args.duration,
            seed=args.seed,
            workers=args.workers,
            executor=_executor(args, progress),
        )
        print(figure_to_csv(figure) if args.csv else render_figure(figure))
        if args.save:
            from .experiments.persistence import save_json

            path = save_json(figure, args.save)
            print(f"[figure saved to {path}]")
        return 0

    if args.command == "table":
        if args.table_id == "table1":
            print(format_table(["Parameter", "Setting"], table1()))
        else:
            rows = [
                (f"{level}%", ", ".join(f"{a:g}" for a in alphas))
                for level, alphas in sorted(table2().items())
            ]
            print(format_table(["Heterogeneity", "Relative capacities"], rows))
        return 0

    if args.command == "grid":
        def parse_axis(text: str):
            field, _, raw_values = text.partition("=")
            if not raw_values:
                raise SystemExit(f"bad axis {text!r}: expected FIELD=V1,V2")

            def parse_value(token: str):
                for cast in (int, float):
                    try:
                        return cast(token)
                    except ValueError:
                        continue
                return token

            return field, [parse_value(v) for v in raw_values.split(",") if v]

        row_field, row_values = parse_axis(args.rows)
        col_field, col_values = parse_axis(args.cols)
        from .experiments.grid import run_grid

        base = _scenario_config(args, "RR")
        grid = run_grid(
            base,
            {row_field: row_values, col_field: col_values},
            executor=_executor(args, progress),
        )
        print(grid.pivot_table(row_field, col_field))
        _print_execution(
            grid.execution,
            labels=[
                ",".join(f"{k}={v}" for k, v in params.items())
                for params, _ in grid.cells
            ],
        )
        return 0

    if args.command == "report":
        from .obs.report import compare_bundles, load_bundle, render_report

        def emit(text: str) -> None:
            if args.out:
                path = pathlib.Path(args.out)
                if path.parent != pathlib.Path(""):
                    path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                print(f"[report written to {path}]")
            else:
                print(text)

        if args.compare:
            if len(args.bundle) != 2:
                print(
                    "error: --compare takes exactly two bundles "
                    "(baseline candidate)",
                    file=sys.stderr,
                )
                return 2
            comparison = compare_bundles(
                load_bundle(args.bundle[0], stem=args.stem),
                load_bundle(args.bundle[1], stem=args.stem),
                threshold_pct=args.threshold,
                gate_wall_time=args.gate_wall_time,
            )
            emit(comparison.render(args.format))
            if not comparison.passed:
                names = ", ".join(
                    delta.name for delta in comparison.regressions()
                )
                print(
                    f"regression beyond {args.threshold:g}%: {names}",
                    file=sys.stderr,
                )
                if args.fail_on_regression:
                    return 1
            return 0
        if len(args.bundle) != 1:
            print(
                "error: expected one bundle directory (use --compare "
                "for two)",
                file=sys.stderr,
            )
            return 2
        bundle = load_bundle(args.bundle[0], stem=args.stem)
        emit(render_report(bundle, args.format))
        return 0

    if args.command == "validate":
        from .experiments.validation import validate_run

        report = validate_run(
            SimulationConfig(duration=args.duration, seed=args.seed)
        )
        print(report)
        return 0 if report.passed else 1

    if args.command == "policies":
        for name in available_policies():
            print(name)
        return 0

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
