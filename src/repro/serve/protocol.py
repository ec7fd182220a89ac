"""Wire protocol for ``repro serve``: newline-delimited JSON over TCP.

One request per line, one response line per request.  Frames are UTF-8
JSON objects terminated by ``\\n``; a connection may pipeline — the
server answers each request as it completes, matching responses to
requests by ``id``, so responses can arrive out of order.

Request::

    {"id": 7, "op": "suite_cell",
     "params": {"workload": "dhrystone", "variant": "modref/promo"},
     "deadline_s": 5.0, "priority": "normal"}

Response (success / failure)::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "queue_full",
                                     "message": "..."}}

``id`` is any JSON scalar the client chooses and is echoed verbatim
(``null`` when a frame was too broken to carry one).  ``deadline_s``,
``priority``, ``trace`` (request a sampled trace back with the
result) and ``idempotency_key`` (a client-chosen string naming the
*logical* request, so a retry of the same work coalesces onto the
original in-flight computation instead of queueing a duplicate) are
optional; see :data:`OPS` for the verbs and
:data:`ERROR_CODES` for every error the server emits.  Frames larger
than :data:`MAX_LINE_BYTES` are rejected with ``payload_too_large`` and
the connection is closed (the stream can no longer be framed reliably).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "OPS",
    "ProtocolError",
    "Request",
    "encode_error",
    "encode_frame",
    "encode_result",
    "parse_request",
]

#: hard cap on one request/response frame (the stream limit)
MAX_LINE_BYTES = 1 << 20

#: the verbs the server understands
OPS = frozenset(
    {"compile", "run", "suite_cell", "explain", "health", "drain", "metrics"}
)

#: every error code the server can put in ``error.code``
ERROR_CODES = frozenset(
    {
        "bad_request",  # frame is not a JSON object
        "unknown_op",  # op missing or not in OPS
        "invalid_params",  # params missing/ill-typed/unknown workload
        "payload_too_large",  # frame exceeded MAX_LINE_BYTES
        "queue_full",  # admission queue at capacity (backpressure)
        "deadline_exceeded",  # deadline fired while queued or mid-cell
        "worker_crashed",  # worker died twice on this request
        "cell_failed",  # the computation itself raised (compile/run error)
        "draining",  # server is shutting down, not accepting work
        "internal",  # unexpected server-side failure
    }
)

_PRIORITIES = ("high", "normal")


class ProtocolError(Exception):
    """A request the server refuses; carries the wire error code."""

    def __init__(self, code: str, message: str, request_id=None) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class Request:
    """One parsed, validated request frame."""

    op: str
    id: object = None
    params: dict = field(default_factory=dict)
    deadline_s: float | None = None
    priority: str = "normal"
    #: client opt-in to tracing: forces sampling for this request and
    #: returns the connected span tree in ``result.trace``
    trace: bool = False
    #: client-chosen identity of the *logical* request: retries carrying
    #: the same key single-flight onto the original computation, and the
    #: chaos layer uses it as the stable fault-decision token
    idempotency_key: str | None = None


def parse_request(line: bytes) -> Request:
    """Decode and validate one frame; raises :class:`ProtocolError`."""
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError("bad_request", f"frame is not valid JSON: {error}")
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "frame must be a JSON object")
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float)):
        raise ProtocolError("bad_request", "id must be a JSON scalar")
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            "unknown_op",
            f"op must be one of {sorted(OPS)}, got {op!r}",
            request_id=request_id,
        )
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            "invalid_params", "params must be an object", request_id=request_id
        )
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        # bool is an int, and json reads NaN and Infinity, which RFC
        # 8259 does not allow (a NaN deadline would fail the worker's
        # poll); an int past the float range could not be converted
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or not 0 < deadline_s <= sys.float_info.max
        ):
            raise ProtocolError(
                "invalid_params",
                "deadline_s must be a finite positive number",
                request_id=request_id,
            )
        deadline_s = float(deadline_s)
    priority = payload.get("priority", "normal")
    if priority not in _PRIORITIES:
        raise ProtocolError(
            "invalid_params",
            f"priority must be one of {_PRIORITIES}, got {priority!r}",
            request_id=request_id,
        )
    trace = payload.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError(
            "invalid_params",
            "trace must be a boolean",
            request_id=request_id,
        )
    idempotency_key = payload.get("idempotency_key")
    if idempotency_key is not None:
        if (
            not isinstance(idempotency_key, str)
            or not idempotency_key
            or len(idempotency_key) > 200
        ):
            raise ProtocolError(
                "invalid_params",
                "idempotency_key must be a non-empty string of at most "
                "200 characters",
                request_id=request_id,
            )
    return Request(
        op=op,
        id=request_id,
        params=params,
        deadline_s=deadline_s,
        priority=priority,
        trace=trace,
        idempotency_key=idempotency_key,
    )


def encode_frame(payload: dict) -> bytes:
    """One response line (compact JSON, newline-terminated)."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def encode_result(request_id, result: dict) -> bytes:
    return encode_frame({"id": request_id, "ok": True, "result": result})


def encode_error(request_id, code: str, message: str) -> bytes:
    assert code in ERROR_CODES, code
    return encode_frame(
        {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
    )
