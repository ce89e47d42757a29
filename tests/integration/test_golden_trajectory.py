"""Golden-trajectory regression for the DES engine.

The engine's fast paths (direct process resumes, the inlined ``run``
loop, lazy callbacks lists) are pure optimizations: they must not change
a single bit of any trajectory. This test pins that property to a
committed fixture — a full fingerprint (trace, metrics snapshot,
max-utilization samples, utilization series and headline scalars) of one
small-but-complete simulation, recorded on the pre-fast-path engine.

Any engine change that alters event ordering, RNG draw order, or float
arithmetic anywhere in the pipeline shows up here as a diff against the
fixture.

Python 3.12 made ``sum`` over floats compensated, which moves the last
bits of the Zipf normalization and hence the trajectory, so the fixture
holds one fingerprint per kind of float sum (keyed like
``golden_large_k.json``). Regenerating rewrites only the section of the
running interpreter.

Regenerate (only when a trajectory change is *intended* and understood)::

    PYTHONPATH=src python tests/integration/test_golden_trajectory.py --regenerate
"""

import json
import pathlib

import pytest

from repro import __version__
from repro.experiments.config import SimulationConfig
from repro.experiments.persistence import config_to_dict
from repro.experiments.simulation import run_simulation
from repro.sim.checkpoint import config_digest

FIXTURE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "fixtures"
    / "golden_trajectory.json"
)

#: Which float ``sum`` this interpreter has; it keys the fixture.
FLOAT_SUM = "compensated" if sum([0.1] * 10) == 1.0 else "naive"

#: The golden run: small enough to finish in about a second, yet it
#: exercises every moving part — adaptive scheduling with alarms, the
#: measured estimator's collection process, DNS + NS caches, tracing and
#: the metrics registry.
GOLDEN_CONFIG = {
    "policy": "DRR2-TTL/S_K",
    "duration": 600.0,
    "seed": 97,
    "heterogeneity": 50,
    "domain_count": 10,
    "total_clients": 120,
    "estimator": "measured",
    "trace": True,
    "keep_utilization_series": True,
}


def fixture_meta() -> dict:
    """What wrote the fixture: engine version and exact config digest.

    Makes the fixture self-describing, so staleness fails loudly: a
    version bump without regeneration, or any drift in the golden
    config (including defaults inherited from ``SimulationConfig``),
    is reported as such instead of surfacing as an inscrutable
    trajectory diff.
    """
    return {
        "engine_version": __version__,
        "config_hash": config_digest(
            config_to_dict(SimulationConfig(**GOLDEN_CONFIG))
        ),
    }


def fingerprint_result(result) -> dict:
    """Reduce a golden-config result to JSON-safe trajectory sections.

    The dict round-trips through JSON without loss: every float is
    serialized via ``repr`` (exact for finite doubles), so equality of
    the round-tripped structures is bit-equality of the trajectories.
    """
    fingerprint = {
        "config": GOLDEN_CONFIG,
        "meta": fixture_meta(),
        "max_utilization_samples": result.max_utilization_samples,
        "mean_utilization_per_server": result.mean_utilization_per_server,
        "utilization_series": result.utilization_series,
        "trace": [
            [record.time, record.category, record.payload]
            for record in result.trace
        ],
        "metrics": result.metrics,
        "scalars": {
            "dns_resolutions": result.dns_resolutions,
            "address_request_rate": result.address_request_rate,
            "dns_resolution_fraction": result.dns_resolution_fraction,
            "dns_control_fraction": result.dns_control_fraction,
            "mean_granted_ttl": result.mean_granted_ttl,
            "alarm_signals": result.alarm_signals,
            "ns_ttl_overrides": result.ns_ttl_overrides,
            "mean_page_response_time": result.mean_page_response_time,
            "max_page_response_time": result.max_page_response_time,
            "total_hits": result.total_hits,
            "total_sessions": result.total_sessions,
        },
    }
    # Normalize through JSON so tuples-vs-lists and int-vs-float key
    # differences cannot mask (or fake) a trajectory change.
    return json.loads(json.dumps(fingerprint))


def compute_fingerprint() -> dict:
    """Run the golden config on the reference engine and fingerprint it."""
    return fingerprint_result(
        run_simulation(SimulationConfig(**GOLDEN_CONFIG), engine_mode="event")
    )


REGENERATE_HINT = (
    "regenerate with `PYTHONPATH=src python "
    "tests/integration/test_golden_trajectory.py --regenerate`"
)


def load_golden() -> dict:
    """The committed fixture, failing loudly when missing or stale.

    Stale means the fixture does not describe *this* engine and config:
    it predates the self-description meta, was written by a different
    package version, or its config (with all defaults resolved) no
    longer hashes to the same digest. Each case is reported by name —
    a stale fixture must never be debugged as a trajectory diff.
    """
    if not FIXTURE.exists():
        pytest.fail(f"golden fixture missing: {FIXTURE} — {REGENERATE_HINT}")
    golden = json.loads(FIXTURE.read_text()).get(FLOAT_SUM)
    if golden is None:
        pytest.fail(
            f"golden fixture has no {FLOAT_SUM!r}-sum section — "
            f"{REGENERATE_HINT}"
        )
    recorded = golden.get("meta")
    if recorded is None:
        pytest.fail(
            f"golden fixture is stale: no self-description meta — "
            f"{REGENERATE_HINT}"
        )
    expected = fixture_meta()
    if recorded["engine_version"] != expected["engine_version"]:
        pytest.fail(
            f"golden fixture is stale: written by engine "
            f"{recorded['engine_version']}, this is "
            f"{expected['engine_version']} — {REGENERATE_HINT}"
        )
    if recorded["config_hash"] != expected["config_hash"]:
        pytest.fail(
            "golden fixture is stale: the golden config (including "
            "SimulationConfig defaults) hashes differently now — "
            + REGENERATE_HINT
        )
    return golden


def test_golden_trajectory_bit_identical():
    """The committed fixture must be reproduced bit-for-bit."""
    golden = load_golden()
    fresh = compute_fingerprint()
    assert fresh["config"] == golden["config"], "fixture config drifted"
    # Compare section by section for a readable failure, then in full.
    for key in golden:
        assert fresh[key] == golden[key], f"trajectory diverged in {key!r}"
    assert fresh == golden


def test_golden_trajectory_fastforward_bit_identical():
    """The fast-forward engine reproduces the committed fixture.

    The fixture was recorded on the reference engine, so this holds the
    hybrid fluid/event mode (:mod:`repro.sim.fastforward`) to the same
    anchor as every other engine fast path: not one bit of trajectory
    drift. The golden config is fluid-eligible, and the test insists on
    that — a silent fallback to event-stepping would vacuously pass.
    """
    from repro.experiments.simulation import Simulation

    golden = load_golden()
    sim = Simulation(
        SimulationConfig(**GOLDEN_CONFIG), engine_mode="fastforward"
    )
    fresh = fingerprint_result(sim.run())
    info = sim.engine_info
    assert info["effective_mode"] == "fastforward", info
    assert info["fast_clients"] == GOLDEN_CONFIG["total_clients"], info
    for key in golden:
        assert fresh[key] == golden[key], (
            f"fast-forward trajectory diverged from the fixture in {key!r}"
        )
    assert fresh == golden


@pytest.mark.resume
def test_golden_trajectory_survives_midpoint_resume(tmp_path):
    """Crash the golden run at its midpoint; the resumed run must
    reproduce the committed fixture bit-for-bit.

    This welds the checkpoint layer to the engine's strongest anchor:
    a resume is held to the *same* fixture as an uninterrupted run, so
    any state the checkpoints failed to carry (or any replay
    divergence) shows up as a golden-trajectory diff.
    """
    from repro.experiments.checkpointing import (
        resume_run,
        run_with_checkpoints,
    )

    golden = load_golden()
    config = SimulationConfig(**GOLDEN_CONFIG)
    midpoint = GOLDEN_CONFIG["duration"] / 2
    halted = run_with_checkpoints(
        config, every=midpoint / 2, directory=tmp_path, halt_at=midpoint
    )
    assert halted is None, "the golden run must halt at its midpoint"
    resumed = fingerprint_result(resume_run(tmp_path))
    for key in golden:
        assert resumed[key] == golden[key], (
            f"resumed trajectory diverged from the fixture in {key!r}"
        )
    assert resumed == golden


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("pass --regenerate to overwrite the golden fixture")
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fixture[FLOAT_SUM] = compute_fingerprint()
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote the {FLOAT_SUM}-sum fingerprint to {FIXTURE}")
