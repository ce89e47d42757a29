"""Wire protocol of the multi-host dispatch layer.

Coordinator and workers speak length-prefixed JSON over a TCP stream:
every message is a 4-byte big-endian payload length followed by exactly
that many bytes of UTF-8 JSON (one object). Framing this explicitly —
rather than, say, newline-delimited JSON — makes a *torn* message (the
sender was killed mid-write) detectable as a short read, which the
coordinator treats exactly like a closed connection: the worker is dead,
its leases go back to the pool.

The conversation is worker-driven (pull model). After connecting, a
worker sends one ``hello`` and then loops::

    worker -> {"type": "request"}
    coord  -> {"type": "lease", "cell": 3, "label": ..., "task": {...},
               "timeout": 30.0, "attempt": 0, "run": "8c1f..."}
           |  {"type": "wait", "delay": 0.2}      # nothing leasable now
           |  {"type": "shutdown"}                # batch is over

    # while executing a lease, inline on the same connection:
    worker -> {"type": "heartbeat", "cell": 3, "attempt": 0,
               "mono": ...}                       # keepalive during the cell
    worker -> {"type": "result", "cell": 3, "elapsed": 1.2,
               "result": {...}, "trace": [...] | null}
           |  {"type": "error", "cell": 3, "error": "...",
               "kind": "SimulationError", "traceback": "..."}

The lease is a cell's "started" signal and ``result`` its "finished"
one; the coordinator records both as span events. Version 1 also had
the worker send a ``progress`` message on each; version 2 dropped it,
and a coordinator refuses a ``hello`` of any other version with
``shutdown``.

Clock discipline: worker messages carry **two** stamps — ``timestamp``
(wall-clock ``time.time()``, for humans and cross-host correlation) and
``mono`` (``time.monotonic()``, for arithmetic). Lease deadlines and
every latency/skew computation in the span reconstructor
(:mod:`repro.obs.spans`) use monotonic stamps only, compared within one
source process, so an NTP step mid-run cannot corrupt durations.
``attempt`` numbers a specific lease of a cell (0 on first lease,
incremented per re-lease) and ``run`` identifies the coordinated batch;
workers echo both back so coordinator- and worker-side span events
correlate.

Cell tasks and results travel as the JSON-safe dicts of
:mod:`repro.experiments.persistence` — the same serialization the
checkpoint ledger and run bundles use — so a result that crossed the
wire saves byte-identically to one produced in-process.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ...errors import DispatchError
from ...obs.export import record_from_dict, record_to_dict
from ..metrics import SimulationResult
from ..persistence import result_from_dict, result_to_dict

#: 4-byte big-endian unsigned frame-length header.
HEADER = struct.Struct(">I")

#: Hard ceiling on one frame's payload (a traced result can be large,
#: but anything past this is a corrupt or hostile stream, not data).
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Protocol revision; ``hello`` carries it so a coordinator can refuse
#: a worker speaking a different message set.
PROTOCOL_VERSION = 2

# Message type tags.
HELLO = "hello"
REQUEST = "request"
LEASE = "lease"
WAIT = "wait"
SHUTDOWN = "shutdown"
HEARTBEAT = "heartbeat"
RESULT = "result"
ERROR = "error"


def parse_address(text: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)``; raises :class:`DispatchError`."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise DispatchError(
            f"bad address {text!r}: expected HOST:PORT (e.g. 127.0.0.1:7571)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise DispatchError(f"bad port in address {text!r}") from None
    if not 0 <= port <= 65535:
        raise DispatchError(f"port out of range in address {text!r}")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    """``(host, port)`` -> ``"host:port"``."""
    return f"{address[0]}:{address[1]}"


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one framed JSON message (compact, key-sorted encoding)."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    sock.sendall(HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on EOF (clean or torn).

    A short read means the peer went away mid-frame — for the dispatch
    layer that is indistinguishable from (and handled identically to) a
    connection closed between frames: the peer is gone.
    """
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (OSError, ValueError):
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one framed message; ``None`` when the peer is gone.

    Raises :class:`~repro.errors.DispatchError` on a frame that cannot
    be data (oversized length prefix or non-JSON payload) — a protocol
    violation, not a death.
    """
    header = _recv_exactly(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise DispatchError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            f"protocol maximum (corrupt stream?)"
        )
    payload = _recv_exactly(sock, length)
    if payload is None:
        return None
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DispatchError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise DispatchError(f"malformed message (no type): {message!r}")
    return message


# -- cell results on the wire -------------------------------------------------


def result_to_wire(result: SimulationResult) -> Dict[str, Any]:
    """The JSON payload carrying one cell's result (trace included).

    :func:`~repro.experiments.persistence.result_to_dict` deliberately
    omits the trace (it can dwarf the result in a saved bundle, where it
    lives in a JSONL sidecar); on the wire the trace must ride along or
    a traced remote cell would silently lose it.
    """
    return {
        "result": result_to_dict(result),
        "trace": (
            [record_to_dict(record) for record in result.trace]
            if result.trace is not None
            else None
        ),
    }


def result_from_wire(payload: Dict[str, Any]) -> SimulationResult:
    """Rebuild the :class:`SimulationResult` sent by :func:`result_to_wire`."""
    result = result_from_dict(payload["result"])
    trace = payload.get("trace")
    if trace is not None:
        result.trace = [record_from_dict(record) for record in trace]
    return result
