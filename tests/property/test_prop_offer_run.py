"""``WebServer.offer_run`` is ``WebServer.offer``, batched, bit for bit.

The fast-lane drains append page bursts to a server's pending run and
apply it with :meth:`~repro.web.server.WebServer.offer_run`; event mode
calls :meth:`~repro.web.server.WebServer.offer` per page. The two carry
the same arithmetic in two copies, so this property pins them together:
one server fed per page and one fed the same bursts as runs, split at
drawn points where a state reader runs, must read the same values and
end with the same state — compared bitwise (exact ``repr`` of every
float), not approximately.
"""

import json
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.server import WebServer

READS = ("none", "backlog", "utilization", "domain_hits", "offered_load")

bursts = st.lists(
    st.tuples(
        # Gap to the previous burst; 0 makes an equal-time tie.
        st.one_of(
            st.just(0.0),
            st.floats(min_value=1e-6, max_value=20.0, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=50),  # hits
        st.integers(min_value=0, max_value=4),  # domain
        st.booleans(),  # a run ends after this burst
        st.sampled_from(READS),  # what is read where it ends
    ),
    min_size=1,
    max_size=80,
)

capacities = st.floats(min_value=0.5, max_value=400.0, allow_nan=False)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def read(server: WebServer, kind: str, now: float):
    if kind == "backlog":
        return bits(server.backlog_seconds)
    if kind == "utilization":
        return bits(server.utilization(now))
    if kind == "offered_load":
        return bits(server.offered_load(now))
    if kind == "domain_hits":
        return list(server.drain_domain_hits().items())
    return None


def state(server: WebServer) -> str:
    return json.dumps(server.snapshot_state(), sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(capacities, bursts)
def test_runs_equal_per_page_offers(capacity, schedule):
    per_page = WebServer(0, capacity)
    batched = WebServer(0, capacity)
    now = 0.0
    for gap, hits, domain, split, kind in schedule:
        now += gap
        per_page.offer(now, hits, domain)
        batched.pending.append((now, hits, domain))
        if split:
            assert read(per_page, kind, now) == read(batched, kind, now)
    if batched.pending:
        batched.offer_run()
    assert batched.pending == []
    assert state(per_page) == state(batched)
    assert list(per_page.domain_hits.items()) == list(
        batched.domain_hits.items()
    )
    closing = now + 5.0
    assert bits(per_page.end_window(closing)) == bits(
        batched.end_window(closing)
    )
    assert state(per_page) == state(batched)
