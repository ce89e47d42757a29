"""Property tests for the decoders of untrusted input: checkpoint
files, serialized simulation configs, Prometheus text expositions,
dispatch frame bodies and cell results on the wire.

Whatever the input, each either decodes or raises its typed error —
:class:`~repro.errors.CheckpointError` for checkpoints,
:class:`~repro.errors.ConfigurationError` for configs and exposition
text, :class:`~repro.errors.DispatchError` for frames and a
:class:`~repro.errors.ReproError` for wire results — never an
``AttributeError``/``TypeError``/``RecursionError`` from deep inside.
The exposition emitter's own output always parses back to the values
it rendered.
"""

import dataclasses
import json
import math
import socket
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ConfigurationError, DispatchError, ReproError
from repro.experiments.config import SimulationConfig
from repro.experiments.dispatch.protocol import HEADER, recv_message, result_from_wire
from repro.experiments.metrics import SimulationResult
from repro.experiments.persistence import config_from_dict, result_to_dict
from repro.obs.export import metrics_to_prom_text, parse_prom_text
from repro.obs.metrics import MetricsRegistry
from repro.sim.checkpoint import Checkpoint, read_checkpoint, state_digest

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]),
    st.floats(), st.text(max_size=8),
)
json_values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)

# -- checkpoint files ---------------------------------------------------------

VALID_CHECKPOINT = Checkpoint(
    sequence=1, time=30.0, dispatched=99, config={"seed": 1},
    config_hash=state_digest({"seed": 1}), seed=1, every=30.0, state={},
    digest=state_digest({}), engine_version="0.0.0",
).to_dict()
CHECKPOINT_KEYS = sorted(VALID_CHECKPOINT)


def _load_or_checkpoint_error(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "checkpoint-000001.json"
    path.write_bytes(payload)
    try:
        assert isinstance(read_checkpoint(path), Checkpoint)
    except CheckpointError:
        pass


@settings(max_examples=150, deadline=None)
@given(payload=st.binary(max_size=64))
@example(payload=b"[1]")
@example(payload=b"\xff\xfe")
def test_arbitrary_bytes_load_or_raise_checkpoint_error(tmp_path_factory, payload):
    _load_or_checkpoint_error(tmp_path_factory, payload)


@settings(max_examples=200, deadline=None)
@given(
    value=json_values
    | st.builds(
        lambda changes, dropped: {
            k: v for k, v in {**VALID_CHECKPOINT, **changes}.items() if k not in dropped
        },
        st.dictionaries(st.sampled_from(CHECKPOINT_KEYS), json_values, max_size=3),
        st.sets(st.sampled_from(CHECKPOINT_KEYS), max_size=2),
    )
)
@example(value=VALID_CHECKPOINT)
def test_arbitrary_json_loads_or_raises_checkpoint_error(tmp_path_factory, value):
    _load_or_checkpoint_error(tmp_path_factory, json.dumps(value).encode())


# -- serialized configs --------------------------------------------------------

CONFIG_KEYS = [spec.name for spec in dataclasses.fields(SimulationConfig)]


@settings(max_examples=300, deadline=None)
@given(
    data=json_values
    | st.dictionaries(
        st.sampled_from(CONFIG_KEYS) | st.text(max_size=6), json_values, max_size=4
    )
)
@example(data={"hits_per_page": 5})
@example(data={"duration": "600"})
@example(data={"total_capacity": 10**400})
def test_config_decodes_or_raises_configuration_error(data):
    try:
        assert isinstance(config_from_dict(data), SimulationConfig)
    except ConfigurationError:
        pass


# -- dispatch frames and wire results ------------------------------------------


def _receive_frame(body):
    """``recv_message`` on one frame carrying ``body``."""
    ours, theirs = socket.socketpair()
    sender = threading.Thread(target=theirs.sendall, args=(HEADER.pack(len(body)) + body,))
    sender.start()
    try:
        return recv_message(ours)
    finally:
        sender.join()
        ours.close()
        theirs.close()


@settings(max_examples=200, deadline=None)
@given(
    body=st.binary(max_size=64)
    | json_values.map(lambda value: json.dumps(value).encode())
    | st.builds(lambda depth, tail: b"[" * depth + tail, st.integers(0, 5000), st.binary(max_size=4))
)
@example(body=b"[" * 100_000)
@example(body=b'{"type": "heartbeat"}')
def test_arbitrary_frame_body_decodes_or_raises_dispatch_error(body):
    try:
        message = _receive_frame(body)
    except DispatchError:
        return
    assert isinstance(message, dict) and "type" in message


VALID_RESULT = result_to_dict(
    SimulationResult(
        policy="RR", max_utilization_samples=[0.5], mean_utilization_per_server=[0.4, 0.6],
        dns_resolutions=3, address_request_rate=0.1, dns_resolution_fraction=0.5,
        dns_control_fraction=0.25, mean_granted_ttl=240.0, alarm_signals=1, ns_ttl_overrides=0,
    )
)
RESULT_KEYS = sorted(VALID_RESULT)


@settings(max_examples=300, deadline=None)
@given(
    payload=json_values
    | st.fixed_dictionaries(
        {"result": json_values | st.builds(
            lambda changes, dropped: {
                k: v for k, v in {**VALID_RESULT, **changes}.items() if k not in dropped
            },
            st.dictionaries(st.sampled_from(RESULT_KEYS), json_values, max_size=3),
            st.sets(st.sampled_from(RESULT_KEYS), max_size=2),
        )},
        optional={"trace": json_values},
    )
)
@example(payload=1)
@example(payload={"trace": None})
@example(payload={"result": [1]})
@example(payload={"result": VALID_RESULT, "trace": [{"time": 1.0, "category": "dns"}]})
def test_arbitrary_json_decodes_as_wire_result_or_raises_typed_error(payload):
    try:
        assert isinstance(result_from_wire(payload), SimulationResult)
    except ReproError:
        pass


# -- Prometheus text exposition -------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=st.sampled_from("ab_{}=\"., +-0123456789eEinfNaI#\n"), max_size=40)
       | st.text(max_size=40))
def test_arbitrary_text_parses_or_raises_configuration_error(text):
    try:
        parse_prom_text(text)
    except ConfigurationError:
        pass


#: Registry names: no ``_`` so that the ``_observations``/``_count``
#: suffixes and ``.``→``_`` sanitizing cannot make two names collide.
names = st.text(alphabet="abcxyz.", min_size=1, max_size=6)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _same(parsed, expected):
    return math.isnan(parsed) if math.isnan(expected) else parsed == expected


@settings(max_examples=150, deadline=None)
@given(
    counters=st.dictionaries(names, st.integers(min_value=0, max_value=10**30), max_size=3),
    gauges=st.dictionaries(names, st.floats(), max_size=3),
    histograms=st.dictionaries(
        names, st.lists(st.tuples(times, st.floats(0.0, 1.0)), max_size=4), max_size=2
    ),
    series=st.dictionaries(names, st.lists(st.floats(), max_size=3), max_size=2),
)
def test_emitted_exposition_parses_back_to_the_snapshot(counters, gauges, histograms, series):
    registry = MetricsRegistry()
    taken = set()

    def fresh(name):
        unique = name not in taken
        taken.add(name)
        return unique

    for name, value in counters.items():
        if fresh(name):
            registry.counter(name, help="a counter").inc(value)
    for name, value in gauges.items():
        if fresh(name):
            registry.gauge(name).set(value)
    for name, observations in histograms.items():
        if fresh(name):
            histogram = registry.histogram(name)
            for now, value in sorted(observations):
                histogram.observe(now, value)
    for name, values in series.items():
        if fresh(name):
            timeseries = registry.timeseries(name)
            for now, value in enumerate(values):
                timeseries.record(float(now), value)
    snapshot = registry.snapshot()
    samples = parse_prom_text(
        metrics_to_prom_text(snapshot, meta=registry.metadata())
    ).samples

    for name, value in snapshot.items():
        full = "repro_" + name.replace(".", "_")
        if isinstance(value, (int, float)):
            assert _same(samples[full], float(value))
        elif value.get("kind") == "timeseries":
            assert samples[f"{full}_observations"] == value["observations"]
            if value["samples"]:
                assert _same(samples[full], value["samples"][-1][1])
        else:
            assert samples[f"{full}_count"] == value["observations"]
            assert samples[f'{full}_seconds_bucket{{le="+Inf"}}'] == value["total_seconds"]
