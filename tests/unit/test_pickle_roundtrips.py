"""Pickle-roundtrip audit of everything that crosses a process boundary.

The parallel executor ships configs out to worker processes and results
(and any raised exception) back; checkpointed grid cells add checkpoint
dataclasses and trace records to that traffic. Python's default
exception pickling replays ``cls(*args)`` with whatever was passed to
``Exception.__init__`` — for any exception whose ``__init__`` takes a
different signature and doesn't forward it, unpickling raises
``TypeError`` *instead of delivering the real error*, turning a clear
failure into an inscrutable one. ``UnknownPolicyError`` had exactly this
bug (fixed with an explicit ``__reduce__``); this audit hunts its
siblings and pins the fix for every transportable object:

* every exception class in :mod:`repro.errors` (enumerated
  programmatically — a new exception cannot dodge the audit: the test
  fails until an example is registered here);
* the engine's out-of-band exception (``EmptySchedule``);
* the data that rides the pool queue: ``SimulationResult`` (with
  config, trace and metrics attached), ``TraceRecord``/``Tracer``/
  ``NullTracer``, ``SpanEvent`` (the progress and span record),
  ``ExecutionStats`` and ``Checkpoint``.
"""

import inspect
import pickle

import pytest

import repro.errors as errors_module
from repro.errors import (
    CheckpointError,
    CheckpointMismatchError,
    ConfigurationError,
    DispatchError,
    EstimationError,
    PolicyError,
    ReproError,
    SimulationError,
    StopProcess,
    UnknownPolicyError,
)
from repro.experiments.checkpointing import take_checkpoint
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ExecutionStats
from repro.experiments.metrics import SimulationResult
from repro.experiments.simulation import Simulation
from repro.obs.spans import COMPLETE, SpanEvent
from repro.sim.checkpoint import Checkpoint
from repro.sim.engine import EmptySchedule
from repro.sim.tracing import NullTracer, TraceRecord, Tracer


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


#: One representative instance per repro.errors exception class. The
#: audit below fails if a class defined in the module has no entry.
ERROR_EXAMPLES = {
    ReproError: ReproError("base failure"),
    SimulationError: SimulationError("clock ran backwards"),
    StopProcess: StopProcess({"value": 42}),
    ConfigurationError: ConfigurationError("workers must be >= 1"),
    PolicyError: PolicyError("scheduler misused"),
    UnknownPolicyError: UnknownPolicyError("RR9", ["RR", "RR2"]),
    EstimationError: EstimationError("shares are all zero"),
    CheckpointError: CheckpointError("cannot read checkpoint"),
    DispatchError: DispatchError("worker connection torn mid-frame"),
    CheckpointMismatchError: CheckpointMismatchError(
        "state.rng", "abc123", "def456"
    ),
}


def _error_classes():
    return [
        cls
        for _, cls in inspect.getmembers(errors_module, inspect.isclass)
        if issubclass(cls, ReproError) and cls.__module__ == errors_module.__name__
    ]


def test_every_errors_class_has_an_audit_example():
    """A new exception class must register an example above to land."""
    missing = [
        cls.__name__ for cls in _error_classes() if cls not in ERROR_EXAMPLES
    ]
    assert not missing, (
        f"repro.errors classes missing from the pickle audit: {missing} — "
        "add a representative instance to ERROR_EXAMPLES (and a "
        "__reduce__ if the constructor signature differs from "
        "Exception's)"
    )


@pytest.mark.parametrize(
    "example",
    list(ERROR_EXAMPLES.values()),
    ids=[cls.__name__ for cls in ERROR_EXAMPLES],
)
def test_errors_roundtrip_with_type_message_and_attrs(example):
    clone = roundtrip(example)
    assert type(clone) is type(example)
    assert str(clone) == str(example)
    assert clone.args == example.args
    # Any public attribute the constructor stored must survive.
    for name, value in vars(example).items():
        assert getattr(clone, name) == value, f"attribute {name!r} lost"


def test_unknown_policy_error_attrs_survive():
    """The original PR bug, pinned forever: name/known cross the pool."""
    clone = roundtrip(UnknownPolicyError("RR9", ["RR", "RR2"]))
    assert clone.name == "RR9"
    assert clone.known == ["RR", "RR2"]


def test_checkpoint_mismatch_error_attrs_survive():
    """Its sibling: the structured mismatch report must arrive intact."""
    clone = roundtrip(CheckpointMismatchError("dispatched", 100, 99))
    assert (clone.field, clone.expected, clone.actual) == (
        "dispatched",
        100,
        99,
    )


def test_engine_exceptions_roundtrip():
    empty = roundtrip(EmptySchedule("no events left"))
    assert isinstance(empty, EmptySchedule)


# -- pool-queue payloads -----------------------------------------------------

TINY = dict(
    policy="RR",
    duration=30.0,
    seed=5,
    domain_count=3,
    total_clients=10,
    trace=True,
    keep_utilization_series=True,
)


@pytest.fixture(scope="module")
def tiny_result():
    sim = Simulation(SimulationConfig(**TINY))
    return sim.run()


def test_simulation_result_roundtrips_fully_loaded(tiny_result):
    """Result + config + trace + metrics + series — the worker payload."""
    clone = roundtrip(tiny_result)
    assert clone == tiny_result
    assert clone.config == tiny_result.config
    assert clone.trace == tiny_result.trace
    assert clone.metrics == tiny_result.metrics
    assert clone.utilization_series == tiny_result.utilization_series


def test_tracer_objects_roundtrip():
    tracer = Tracer(["dns", "alarm"])
    tracer.record(1.0, "dns", {"server": 2, "ttl": 120.0})
    tracer.record(2.0, "alarm", {"server": 0})
    tracer.record(3.0, "sched", {"ignored": True})  # filtered category
    clone = roundtrip(tracer)
    assert clone.categories == tracer.categories
    assert clone.records == tracer.records
    assert clone.category_counts() == tracer.category_counts()

    record = TraceRecord(4.0, "dns", {"weight": 0.25})
    assert roundtrip(record) == record

    null = roundtrip(NullTracer())
    assert isinstance(null, NullTracer)
    assert null.enabled is False


def test_progress_event_roundtrips():
    event = SpanEvent(
        kind=COMPLETE,
        source="executor",
        wall=1e9,
        mono=12.5,
        run="8c1f0a2b3c4d",
        cell=7,
        attempt=0,
        worker="4242",
        extra={
            "label": "policy=RR,heterogeneity=20",
            "winner": True,
            "elapsed": 1.25,
        },
    )
    assert roundtrip(event) == event


def test_execution_stats_roundtrips():
    stats = ExecutionStats(workers=4, wall_time=2.0, cell_times=[1.0, 0.5])
    clone = roundtrip(stats)
    assert clone == stats
    assert clone.speedup == stats.speedup


def test_checkpoint_roundtrips(tmp_path):
    sim = Simulation(SimulationConfig(**TINY))
    sim.advance(10.0)
    checkpoint = take_checkpoint(sim, sequence=1, every=10.0)
    assert roundtrip(checkpoint) == checkpoint
    assert isinstance(roundtrip(checkpoint), Checkpoint)
