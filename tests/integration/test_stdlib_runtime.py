"""The runtime needs only the standard library.

Every process the simulator runs in (CLI commands, perfbench
repetitions, ``repro worker serve`` agents) imports ``repro``. These
tests run fresh interpreters and check that simulating and every
confidence interval work without numpy or scipy being imported, and that
blocking scipy does not change an interval.
"""

import os
import pathlib
import random
import statistics
import subprocess
import sys

import pytest

from repro.sim.stats import t_critical

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

EXERCISE = """
import sys

import repro
import repro.cli
from repro.analysis import paired_comparison
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import run_replications
from repro.experiments.simulation import run_simulation
from repro.sim.stats import batch_means_ci

config = SimulationConfig(policy="DRR2-TTL/S_K", duration=300.0, seed=5)
for mode in ("event", "fastforward"):
    result = run_simulation(config, engine_mode=mode)
    result.confidence_interval()
batch_means_ci([float(i % 7) for i in range(400)])
run_replications(config, replications=2).prob_max_below_ci()
paired_comparison(config, "DRR2-TTL/S_K", "RR", replications=2)
print(sorted(name for name in ("numpy", "scipy") if name in sys.modules))
"""

HALF_WIDTH = """
import random

from repro.sim.stats import batch_means_ci

rng = random.Random(3)
print(repr(batch_means_ci([rng.gauss(0.0, 1.0) for _ in range(400)])[1]))
"""


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return completed.stdout.strip()


def test_simulating_and_intervals_load_neither_numpy_nor_scipy():
    assert _python(EXERCISE) == "[]"


def test_blocking_scipy_leaves_the_batch_means_interval_unchanged():
    blocked = _python('import sys\nsys.modules["scipy"] = None\n' + HALF_WIDTH)
    ordinary = _python(HALF_WIDTH)
    assert blocked == ordinary
    # t_19 = 2.093, not the normal 1.96.
    rng = random.Random(3)
    samples = [rng.gauss(0.0, 1.0) for _ in range(400)]
    means = [statistics.fmean(samples[i : i + 20]) for i in range(0, 400, 20)]
    expected = t_critical(0.95, 19) * statistics.stdev(means) / 20 ** 0.5
    assert float(ordinary) == pytest.approx(expected, rel=1e-12)
