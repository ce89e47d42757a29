"""Pinned result digests for large-``K`` domain sets.

The golden trajectory (``test_golden_trajectory.py``) runs at ``K = 10``,
so nothing there would notice a change in how a 10^5-domain popularity
vector is built, normalized, sampled or handed to an estimator. This
test pins the sha256 of :func:`~repro.experiments.persistence.result_to_dict`
for five configurations, in both engine modes:

- ``K = 20`` (the paper's default workload);
- the synthetic population at ``K = 10^5`` with the measured estimator;
- the diurnal trace source at ``K = 10^5`` (oracle estimator);
- the trace source at ``K = 1.5 * 10^5`` with a 30% workload error, so
  the perturbed share vector drives the arrival sampling;
- ``IDEAL`` at ``K = 1.2 * 10^5``, which swaps in uniform domains.

Every configuration is smoke-sized; the whole file runs in a few seconds.

Python 3.12 made ``sum`` over floats compensated, which moves the last
bits of every Zipf normalization and hence every trajectory, so the
fixture holds one set of digests per kind of float sum.

Regenerate (only when a trajectory change is *intended* and understood)::

    PYTHONPATH=src python tests/integration/test_golden_large_k.py --regenerate
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.persistence import result_to_dict
from repro.experiments.simulation import Simulation

FIXTURE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "fixtures"
    / "golden_large_k.json"
)

ENGINE_MODES = ("event", "fastforward")

#: Which float ``sum`` this interpreter has; it keys the fixture.
FLOAT_SUM = "compensated" if sum([0.1] * 10) == 1.0 else "naive"


def _trace_config(**changes) -> SimulationConfig:
    """A trace-source config whose site is sized to Table 1's load."""
    config = SimulationConfig(
        policy="DRR2-TTL/S_K", workload_source="trace", **changes
    )
    sessions = (
        config.trace_rate * config.mean_pages_per_session
        * config.mean_think_time
    )
    return config.replace(total_capacity=sessions)


CONFIGS = {
    "k20": SimulationConfig(policy="DRR2-TTL/S_K", duration=300.0, seed=11),
    "synthetic-k1e5-measured": SimulationConfig(
        policy="PRR2-TTL/K",
        domain_count=100_000,
        total_clients=2_000,
        total_capacity=2_000.0,
        estimator="measured",
        duration=20.0,
        seed=12,
    ),
    "trace-diurnal-k1e5": _trace_config(
        domain_count=100_000,
        trace_profile="diurnal",
        trace_rate=3.0,
        trace_amplitude=0.5,
        trace_period=120.0,
        duration=120.0,
        seed=13,
    ),
    "trace-k1.5e5-error": _trace_config(
        domain_count=150_000,
        trace_rate=3.0,
        workload_error=0.3,
        duration=120.0,
        seed=14,
    ),
    "ideal-uniform-k1.2e5": SimulationConfig(
        policy="IDEAL",
        domain_count=120_000,
        total_clients=1_000,
        total_capacity=1_000.0,
        duration=30.0,
        seed=15,
    ),
}


def result_digest(name: str, engine_mode: str) -> str:
    """sha256 of one configuration's canonical result dict."""
    result = Simulation(CONFIGS[name], engine_mode=engine_mode).run()
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("engine_mode", ENGINE_MODES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_large_k_result_digest(name, engine_mode):
    golden = json.loads(FIXTURE.read_text())[FLOAT_SUM]
    assert result_digest(name, engine_mode) == golden[name], (
        f"{name} ({engine_mode}) diverged from the pinned digest"
    )


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to overwrite the large-K fixture")
    digests = {}
    for name in sorted(CONFIGS):
        event, fast = (result_digest(name, mode) for mode in ENGINE_MODES)
        if event != fast:
            sys.exit(f"{name}: engine modes disagree; not writing a fixture")
        digests[name] = event
    fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fixture[FLOAT_SUM] = digests
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote the {FLOAT_SUM}-sum digests to {FIXTURE}")
