"""Fabric observability: spans, scrapeable endpoints, crash forensics.

These tests run a real coordinator (in-process, via
:class:`~repro.experiments.dispatch.RemoteBackend`) against real
``repro worker serve`` agents in subprocesses and prove the claims of
the observability plane:

* span logs written by the coordinator and both workers merge into one
  :class:`~repro.obs.spans.FabricTimeline` that **reconciles** — every
  cell submitted, leased, and completed by exactly one winning attempt,
  with gapless attempt numbers — even when a worker is killed mid-cell
  and its leases are re-issued;
* the ``/metrics`` endpoints (coordinator and worker) serve valid
  Prometheus text exposition mid-run and ``/healthz`` answers;
* the crash ring buffer of a killed worker lands in
  ``crash-<worker>.jsonl`` and is readable with the salvage loader;
* **zero cost when disabled, zero effect when enabled**: results of a
  fully-instrumented remote run are field-for-field equal to both an
  uninstrumented remote run and the serial ``workers=1`` local run.

Durations are tiny (a few hundred simulated seconds per cell) so the
module stays in tier 1.
"""

import json
import os
import pathlib
import subprocess
import sys
import urllib.request

from repro.experiments.config import SimulationConfig
from repro.experiments.dispatch import CRASH_EXIT_STATUS, RemoteBackend
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import result_to_dict
from repro.obs.export import parse_prom_text
from repro.obs.http import PROM_CONTENT_TYPE
from repro.obs.jsonl import read_jsonl
from repro.obs.progress import JsonlProgressSink
from repro.obs.spans import (
    FabricTimeline,
    crash_file_name,
    load_span_logs,
    render_fabric_timeline,
    span_from_dict,
    span_to_dict,
)


def _grid_configs():
    """A small mixed-policy batch — enough cells to share around."""
    return [
        SimulationConfig(
            policy=policy, heterogeneity=het, duration=400.0, seed=11
        )
        for policy in ("RR", "DAL", "DRR2-TTL/S_K")
        for het in (20, 35)
    ]


def _spawn_worker(address, *, worker_id, crash_after=None, span_log=None,
                  metrics_port=None, crash_dir=None):
    """Start one ``repro worker serve`` agent as a subprocess."""
    host, port = address
    argv = [
        sys.executable, "-m", "repro", "worker", "serve",
        "--connect", f"{host}:{port}",
        "--connect-timeout", "5",
        "--id", worker_id,
    ]
    if crash_after is not None:
        argv += ["--crash-after", str(crash_after)]
    if span_log is not None:
        argv += ["--span-log", str(span_log)]
    if metrics_port is not None:
        argv += ["--metrics-port", str(metrics_port)]
    if crash_dir is not None:
        argv += ["--crash-dir", str(crash_dir)]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        argv, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _run_observed(configs, tmp_path, *, workers=2, crash_first=False,
                  metrics_probe=None, lease_timeout=15.0):
    """A fully-instrumented remote run: spans + metrics everywhere.

    The coordinator also streams its span events into a progress log,
    ``tmp_path / "progress.jsonl"``.
    Returns ``(results, executor, agents, span_paths, crash_dir)``.
    ``metrics_probe`` is called once mid-run with the backend (scrape
    while the batch is live).
    """
    span_dir = tmp_path / "spans"
    span_dir.mkdir(exist_ok=True)
    crash_dir = tmp_path / "forensics"
    backend = RemoteBackend(
        ("127.0.0.1", 0),
        lease_timeout=lease_timeout,
        timeout=120.0,
        span_log=span_dir / "coordinator.jsonl",
        metrics_port=0,
    )
    address = backend.bind()
    if metrics_probe is not None:
        # The endpoint is up as soon as bind() returns — probe it while
        # no batch has ever run, then again after the batch below.
        metrics_probe(backend)
    sink = JsonlProgressSink(tmp_path / "progress.jsonl")
    executor = ParallelExecutor(backend=backend, progress=sink)
    span_paths = [span_dir / "coordinator.jsonl"]
    agents = []
    try:
        for index in range(workers):
            worker_log = span_dir / f"w{index}.jsonl"
            span_paths.append(worker_log)
            agents.append(_spawn_worker(
                address,
                worker_id=f"w{index}",
                crash_after=1 if crash_first and index == 0 else None,
                span_log=worker_log,
                crash_dir=crash_dir,
            ))
        results = executor.run_simulations(
            configs, labels=[c.policy for c in configs]
        )
        if metrics_probe is not None:
            metrics_probe(backend)
    finally:
        backend.close()
        sink.close()
        for agent in agents:
            try:
                agent.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                agent.kill()
                agent.wait()
            agent.stderr.close()
    return results, executor, agents, span_paths, crash_dir


class TestSpanReconciliation:
    def test_clean_run_reconciles_and_renders(self, tmp_path):
        configs = _grid_configs()
        results, executor, agents, span_paths, _ = _run_observed(
            configs, tmp_path
        )
        assert all(agent.returncode == 0 for agent in agents)

        events, torn = load_span_logs(
            [p for p in span_paths if p.exists()]
        )
        assert torn == 0
        timeline = FabricTimeline.from_events(events)
        assert timeline.run == executor.backend.last_run_id
        report = timeline.reconcile()
        assert report.ok, report.problems
        assert report.cells == len(configs)
        assert report.attempts == len(configs)  # no retries
        assert report.releases == 0
        # Worker-side events joined up with coordinator-side leases.
        for cell in timeline.cells.values():
            winner = cell.winning_attempt()
            assert winner is not None
            assert winner.executed is not None, (
                f"cell {cell.cell}: no worker execute event"
            )
            assert winner.executed.source == winner.leased.worker
            assert cell.phases() is not None
        # Labels survive into the report text.
        text = render_fabric_timeline(timeline, report)
        assert "reconciliation: OK" in text
        assert "per-worker lanes:" in text
        assert "DRR2-TTL/S_K" in text
        # The progress log is the coordinator's span stream, event for
        # event (handler threads may interleave the two writers).
        progress, torn = load_span_logs([tmp_path / "progress.jsonl"])
        coordinator, _ = load_span_logs([span_paths[0]])
        assert torn == 0

        def lines(events):
            return sorted(json.dumps(span_to_dict(e), sort_keys=True) for e in events)

        assert lines(progress) == lines(coordinator)
        assert FabricTimeline.from_events(progress).reconcile().ok

    def test_killed_worker_run_reconciles_with_re_leases(
        self, tmp_path, leases_after_join
    ):
        configs = _grid_configs()
        leases_after_join(2)
        results, executor, agents, span_paths, crash_dir = _run_observed(
            configs, tmp_path, crash_first=True, lease_timeout=3.0
        )
        statuses = sorted(agent.returncode for agent in agents)
        assert statuses == [0, CRASH_EXIT_STATUS]

        events, _ = load_span_logs([p for p in span_paths if p.exists()])
        timeline = FabricTimeline.from_events(events)
        report = timeline.reconcile()
        # The invariant under test: a mid-cell kill shows up as expiry
        # or release followed by a re-lease — and *still* reconciles.
        assert report.ok, report.problems
        assert report.cells == len(configs)
        assert report.attempts > len(configs)
        assert report.releases >= 1
        retried = [
            cell for cell in timeline.cells.values()
            if len(cell.attempts) > 1
        ]
        assert retried
        for cell in retried:
            winner = cell.winning_attempt()
            assert winner is not None and winner.worker == "w1"

        # Crash forensics: the dying worker flushed its ring.
        crash_file = crash_dir / crash_file_name("w0")
        assert crash_file.exists(), sorted(crash_dir.iterdir())
        crash_events, _ = read_jsonl(crash_file, span_from_dict, strict=False)
        assert crash_events, "empty crash ring flush"
        assert crash_events[-1].kind == "crash"
        assert crash_events[-1].extra.get("reason") == "crash-after"
        # The ring captured the fatal lease's execute event too.
        assert any(e.kind == "execute" for e in crash_events)


class TestScrapeableEndpoints:
    def test_coordinator_metrics_and_health_mid_run(
        self, tmp_path, leases_after_join
    ):
        # workers_seen == 2 below needs both agents to join first.
        leases_after_join(2)
        configs = _grid_configs()[:3]
        scrapes = []

        def probe(backend):
            host, port = backend.metrics_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=5
            ) as response:
                assert response.headers["Content-Type"] == PROM_CONTENT_TYPE
                text = response.read().decode("utf-8")
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=5
            ) as response:
                health = json.loads(response.read().decode("utf-8"))
            scrapes.append((parse_prom_text(text), health))

        results, executor, agents, _, _ = _run_observed(
            configs, tmp_path, metrics_probe=probe
        )
        before, after = scrapes
        exposition, health = before
        assert health["status"] == "ok"
        assert health["role"] == "coordinator"
        assert exposition.value("repro_fabric_batches") == 0
        assert exposition.value("repro_fabric_cells_total") == 0
        assert exposition.types["repro_fabric_lease_retries"] == "counter"
        assert "Workers with a live coordinator connection" in (
            exposition.helps["repro_fabric_workers_connected"]
        )
        exposition, health = after
        assert health["batches"] == 1
        assert health["run"] == executor.backend.last_run_id
        assert exposition.value("repro_fabric_batches") == 1
        assert exposition.value("repro_fabric_cells_total") == len(configs)
        assert (
            exposition.value("repro_fabric_cells_completed") == len(configs)
        )
        assert exposition.value("repro_fabric_workers_seen") == 2

    def test_worker_metrics_endpoint_serves_telemetry(self, tmp_path):
        # One worker with a pinned metrics port, scraped while it waits
        # for a coordinator (its telemetry is live before any lease).
        agent = _spawn_worker(
            ("127.0.0.1", 1), worker_id="lonely", metrics_port=0
        )
        try:
            # The bound address is announced on stderr before dialing.
            line = agent.stderr.readline()
            assert "metrics on http://" in line, line
            url = line.split("metrics on ", 1)[1].strip()
            with urllib.request.urlopen(url, timeout=5) as response:
                exposition = parse_prom_text(
                    response.read().decode("utf-8")
                )
            assert exposition.value("repro_worker_cells_completed") == 0
            assert exposition.value("repro_worker_rss_bytes") > 0
            assert exposition.value("repro_worker_uptime_seconds") > 0
            assert (
                exposition.types["repro_worker_heartbeats_sent"] == "counter"
            )
            health_url = url.replace("/metrics", "/healthz")
            with urllib.request.urlopen(health_url, timeout=5) as response:
                health = json.loads(response.read().decode("utf-8"))
            assert health["role"] == "worker"
            assert health["worker"] == "lonely"
        finally:
            agent.wait(timeout=30)
            agent.stderr.close()


class TestObservabilityIsFree:
    def test_instrumented_run_matches_bare_remote_and_serial_local(
        self, tmp_path
    ):
        configs = _grid_configs()
        observed, _, agents, span_paths, _ = _run_observed(
            configs, tmp_path
        )
        assert all(agent.returncode == 0 for agent in agents)
        # Spans were really on (the logs are non-trivial)...
        events, _ = load_span_logs([p for p in span_paths if p.exists()])
        assert len(events) > 4 * len(configs)

        # ...yet a bare remote run returns identical serialized results,
        bare_backend = RemoteBackend(
            ("127.0.0.1", 0), lease_timeout=15.0, timeout=120.0
        )
        assert bare_backend.spans is None
        address = bare_backend.bind()
        bare_executor = ParallelExecutor(backend=bare_backend)
        bare_agents = []
        try:
            for index in range(2):
                bare_agents.append(
                    _spawn_worker(address, worker_id=f"bare{index}")
                )
            bare = bare_executor.run_simulations(
                configs, labels=[c.policy for c in configs]
            )
        finally:
            bare_backend.close()
            for agent in bare_agents:
                agent.wait(timeout=30)
                agent.stderr.close()

        # ...and so does the serial local reference.
        local = ParallelExecutor(workers=1).run_simulations(configs)
        observed_dicts = [result_to_dict(r) for r in observed]
        assert observed_dicts == [result_to_dict(r) for r in bare]
        assert observed_dicts == [result_to_dict(r) for r in local]
