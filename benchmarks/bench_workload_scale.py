"""Million-domain workload scale bench and memory-budget gate.

The eager ``ClientPopulation`` spawns one live generator per client
from t=0, which caps runs far below the domain counts where TTL/K
policies get interesting.  The sharded population and the trace-driven
source keep per-client state in flat arrays and per-session slots, so
a 10^6-domain run holds memory roughly constant in *domains touched*,
not domains configured.  This script proves it two ways:

``--record``
    Run the full-scale configurations — synthetic sharded at 10^6
    domains / ~10^8 requests, trace-driven at 10^6 domains — and write
    wall time, throughput, and peak RSS into ``BENCH_ENGINE.json``
    under ``workload_scale``.  The committed numbers are the scale
    contract future PRs are measured against.

``--check``
    CI smoke: a *truncated* 10^6-domain config (short duration, small
    client count) under a hard tracemalloc budget.  An eager-spawn
    regression — any path that materializes a per-domain or per-client
    Python list at construction — blows the budget by an order of
    magnitude, so it can never come back unnoticed.

Usage::

    PYTHONPATH=src python benchmarks/bench_workload_scale.py --check
    PYTHONPATH=src python benchmarks/bench_workload_scale.py --record
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import resource
import sys
import time
import tracemalloc

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_ENGINE.json"

#: Hard tracemalloc budget for the truncated CI smoke, in MiB.  The
#: sharded population peaks around 16 MiB at 10^6 domains / 2 000
#: clients (23 MiB for the trace source), nearly all of it 8 MB share
#: arrays; an eager population at the same scale allocates hundreds of
#: MiB before the first event fires.
CHECK_TRACEMALLOC_MIB = 64.0

#: Hard peak-RSS ceiling for the full --record runs, in MiB.
RECORD_RSS_MIB = 2048.0

MIB = 1024.0 * 1024.0


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_config(config, engine_mode="event", trace_memory=False) -> dict:
    """Build and run one configuration, measuring time and memory."""
    gc.collect()
    if trace_memory:
        tracemalloc.start()
    start = time.perf_counter()
    sim = Simulation(config, engine_mode=engine_mode)
    build_seconds = time.perf_counter() - start
    result = sim.run()
    elapsed = time.perf_counter() - start
    numbers = {
        "domains": config.domain_count,
        "duration": config.duration,
        "engine": sim.engine_info["effective_mode"],
        "build_seconds": round(build_seconds, 2),
        "wall_seconds": round(elapsed, 2),
        "sessions": result.total_sessions,
        "hits": result.total_hits,
        "hits_per_sec": round(result.total_hits / (elapsed - build_seconds)),
        "peak_rss_mib": round(_rss_mib(), 1),
    }
    if trace_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        numbers["tracemalloc_peak_mib"] = round(peak / MIB, 1)
    return numbers


def synthetic_config(domains, clients, duration) -> SimulationConfig:
    return SimulationConfig(
        policy="RR",
        domain_count=domains,
        total_clients=clients,
        population="lazy",
        duration=duration,
        seed=5,
    )


def trace_config(domains, rate, duration) -> SimulationConfig:
    return SimulationConfig(
        policy="RR",
        domain_count=domains,
        workload_source="trace",
        trace_profile="diurnal",
        trace_rate=rate,
        trace_period=3600.0,
        duration=duration,
        seed=5,
    )


def check(budget_mib: float) -> int:
    """Truncated 10^6-domain smoke under a hard tracemalloc budget."""
    failures = []
    cases = [
        ("synthetic", synthetic_config(1_000_000, 2_000, 60.0)),
        ("trace", trace_config(1_000_000, 2.0, 60.0)),
    ]
    for label, config in cases:
        numbers = run_config(config, trace_memory=True)
        peak = numbers["tracemalloc_peak_mib"]
        verdict = "ok" if peak <= budget_mib else "OVER BUDGET"
        print(
            f"{label}: {numbers['hits']} hits in "
            f"{numbers['wall_seconds']}s, tracemalloc peak "
            f"{peak} MiB (budget {budget_mib} MiB) — {verdict}"
        )
        if numbers["hits"] <= 0:
            failures.append(f"{label}: produced no traffic")
        if peak > budget_mib:
            failures.append(
                f"{label}: tracemalloc peak {peak} MiB exceeds the "
                f"{budget_mib} MiB budget — an eager-spawn path is back"
            )
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def record() -> int:
    """Full-scale runs recorded into BENCH_ENGINE.json."""
    # ~8.5M hits per 120 sim-seconds at 100k clients: 1 440 sim-seconds
    # lands the synthetic run at ~10^8 requests.
    synthetic = run_config(
        synthetic_config(1_000_000, 100_000, 1_440.0),
        engine_mode="fastforward",
    )
    print("synthetic:", json.dumps(synthetic, indent=2))
    trace = run_config(trace_config(1_000_000, 100.0, 3_600.0))
    print("trace:", json.dumps(trace, indent=2))
    over = [
        label
        for label, numbers in (("synthetic", synthetic), ("trace", trace))
        if numbers["peak_rss_mib"] > RECORD_RSS_MIB
    ]
    if over:
        print(
            f"FAIL peak RSS over {RECORD_RSS_MIB} MiB in: {', '.join(over)}",
            file=sys.stderr,
        )
        return 1
    results = json.loads(RESULTS_FILE.read_text())
    results["workload_scale"] = {
        "synthetic": synthetic,
        "trace": trace,
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%d"),
    }
    RESULTS_FILE.write_text(json.dumps(results, indent=2) + "\n")
    print(f"recorded workload_scale into {RESULTS_FILE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--record",
        action="store_true",
        help="run the full-scale configs and record BENCH_ENGINE.json",
    )
    group.add_argument(
        "--check",
        action="store_true",
        help="truncated smoke under the hard tracemalloc budget (CI)",
    )
    parser.add_argument(
        "--budget-mib",
        type=float,
        default=CHECK_TRACEMALLOC_MIB,
        help="tracemalloc budget for --check (MiB)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check(args.budget_mib)
    return record()


if __name__ == "__main__":
    raise SystemExit(main())
