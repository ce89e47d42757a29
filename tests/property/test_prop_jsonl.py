"""Property tests for the shared JSONL reader, the trust boundary of every
trace, progress log, span log, crash ring and arrival-rate replay file.

For arbitrary bytes, salvage mode never raises and accounts for every
non-blank line exactly once (a record or a damage entry whose byte
offset is the start of that line); strict mode agrees with salvage or
raises :class:`~repro.errors.ConfigurationError` at the first damage.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.export import record_from_dict, record_to_dict
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.obs.spans import SpanEvent, span_from_dict, span_to_dict
from repro.sim.tracing import TraceRecord
from repro.workload.trace import _rate_point

DECODERS = [None, record_from_dict, span_from_dict, _rate_point]

#: Keys the format decoders look up, so generated objects often half-match.
KEYS = ["time", "category", "payload", "t", "rate", "kind", "source", "wall", "mono", "cell",
        "attempt", "worker", "extra", "x"]

finite = st.floats(allow_nan=False, allow_infinity=False)
#: Numbers that ``float()``/``int()`` overflow on.
extremes = st.sampled_from([10**400, float("inf"), -float("inf")])
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), extremes,
    st.floats(allow_nan=False), st.text(max_size=8),
)
json_values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
objects = st.dictionaries(st.sampled_from(KEYS), json_values, max_size=6)
#: Well-formed trace, span and replay records with some fields overwritten.
near_records = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from([
        {"time": 1.0, "category": "dns"},
        {"kind": "lease", "source": "c", "wall": 1.0, "mono": 1.0},
        {"t": 0.0, "rate": 1.0},
    ]),
    st.dictionaries(st.sampled_from(KEYS), extremes | json_values, max_size=3),
)
object_lines = (objects | near_records).map(lambda obj: json.dumps(obj, sort_keys=True).encode())
odd_lines = st.sampled_from(
    [b"", b"  \t", b"\r", b"[1]", b"null", b"{", b'"s"', b"\xff", b"\xef\xbb\xbf{}", b"[" * 100_000]
)
lines = st.one_of(object_lines, odd_lines, st.binary(max_size=24))
files = st.one_of(st.binary(max_size=200), st.lists(lines, max_size=8).map(b"\n".join))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonl") / "f.jsonl"


def _expected_lines(data):
    """``(line_number, byte_offset)`` of every non-blank line."""
    out, offset = [], 0
    for number, line in enumerate(data.split(b"\n"), start=1):
        if line.strip():
            out.append((number, offset))
        offset += len(line) + 1
    return out


@settings(max_examples=300, deadline=None)
@given(data=files, decode=st.sampled_from(DECODERS))
@example(data=b'{"kind": "k", "source": "s", "wall": 1, "mono": 1, "cell": Infinity}',
         decode=span_from_dict)
@example(data=b'{"time": 1' + b"0" * 400 + b', "category": "dns"}', decode=record_from_dict)
def test_salvage_accounts_for_every_line_and_strict_agrees(scratch, data, decode):
    scratch.write_bytes(data)
    records, damage = read_jsonl(scratch, decode, strict=False)
    expected = _expected_lines(data)
    assert len(records) + len(damage) == len(expected)
    assert {(d.line_number, d.byte_offset) for d in damage} <= set(expected)
    if damage:
        first = damage[0]
        with pytest.raises(ConfigurationError, match=f":{first.line_number}: "):
            read_jsonl(scratch, decode)
    else:
        strict, none = read_jsonl(scratch, decode)
        assert none == [] and repr(strict) == repr(records)


trace_records = st.builds(TraceRecord, time=finite, category=st.text(max_size=8), payload=objects)
span_events = st.builds(
    SpanEvent,
    kind=st.text(max_size=8),
    source=st.text(max_size=8),
    wall=finite,
    mono=finite,
    run=st.none() | st.text(max_size=8),
    cell=st.none() | st.integers(),
    attempt=st.none() | st.integers(),
    worker=st.none() | st.text(max_size=8),
    extra=objects,
)


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.lists(trace_records, max_size=5), st.just((record_to_dict, record_from_dict))),
        st.tuples(st.lists(span_events, max_size=5), st.just((span_to_dict, span_from_dict))),
        st.tuples(st.lists(objects, max_size=5), st.just((dict, None))),
    )
)
def test_write_then_read_round_trips_every_format(scratch, case):
    items, (to_dict, from_dict) = case
    write_jsonl(scratch, map(to_dict, items))
    assert read_jsonl(scratch, from_dict) == (items, [])
