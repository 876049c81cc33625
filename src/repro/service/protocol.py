"""The service wire protocol: newline-delimited JSON frames over TCP.

One frame per line, one JSON object per frame.  A client sends request
envelopes and reads response envelopes; requests may be pipelined on one
connection and responses may arrive **out of order** — the ``id`` field
correlates them (the server echoes it verbatim).

Request envelope::

    {"id": 7, "tenant": "team-a", "request": {<request.to_dict()>}}
    {"id": 9, "tenant": "team-a", "deadline_ms": 250.0, "request": {...}}
    {"id": 8, "op": "stats"}          # admin ops: stats | ping

``request`` is a versioned :mod:`repro.api` request object
(``repro-request/1``): ``simulate``, ``sweep`` or
``price_fault_schedule``.  ``deadline_ms`` is an optional per-request
latency budget (a positive finite number of milliseconds, measured from
the moment the server admits the frame): a request the server cannot
answer within its budget is answered with a ``deadline_exceeded``
rejection instead of a late result.  Requests without a deadline are
never timed out by the server.

Response envelope::

    {"id": 7, "status": "ok",       "payload": {...}, "meta": {...}}
    {"id": 7, "status": "rejected", "error": {"code": "backpressure", ...},
     "meta": {"retry_after": 0.05}}
    {"id": 7, "status": "error",    "error": {"code": "bad-request", ...}}

``meta.served_by`` on ok responses names the costliest source among
the request's work items, cheapest first: ``memo`` (in-process LRU),
``coalesced`` (attached to identical work already in flight),
``disk`` (the ``cache_dir`` result store, which several servers may
share), ``computed`` (priced by an
engine — for analytical points usually in a kernel dispatch shared with
other tenants' points; same bits either way).
``rejected`` means the request was turned away but may
succeed if resent — codes ``backpressure`` (admission control), ``quota``
(tenant over budget), ``deadline_exceeded`` (the
request's ``deadline_ms`` budget ran out first; resend with a larger
budget), or ``draining`` (the server is shutting down gracefully and no
longer admits new work) — retry after ``meta.retry_after`` seconds;
``error`` means the request itself is unservable (malformed, unknown
workload, engine failure) and retrying it unchanged cannot help.

Frames are canonical (sorted keys, compact separators), so identical
payloads are byte-identical on the wire.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional

from repro.errors import ConfigError

#: Protocol version, echoed by ``ping`` and stamped into ``stats``.
PROTOCOL = "repro-service/1"

#: Per-frame size cap (a sweep response over a large grid is big, a
#: request should never be).  The server reads lines with this limit.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Response statuses.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"


class ProtocolError(ConfigError):
    """A frame that is not valid protocol (bad JSON, not an object)."""


class DeadlineExceeded(ConfigError):
    """A request's ``deadline_ms`` budget ran out before its answer.

    Raised internally by the broker and batch scheduler; on the wire it
    becomes a ``rejected`` envelope with code ``deadline_exceeded``.
    Shared work the request was attached to keeps running for its other
    waiters — only this request's answer is given up on.
    """

    retryable = True


def parse_deadline_ms(value) -> Optional[float]:
    """Validate an envelope's ``deadline_ms`` field.

    Returns the budget in milliseconds, or ``None`` when absent.
    Raises :class:`ProtocolError` on anything that is not a positive
    finite real number — a garbage deadline is a malformed request, not
    an instantly-expired one.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ProtocolError(
            f"deadline_ms must be a positive finite number of "
            f"milliseconds, got {value!r}"
        )
    return float(value)


def encode_frame(obj: Dict) -> bytes:
    """Canonical wire form: compact sorted-key JSON plus newline."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes) -> Dict:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def ok_response(
    rid: Any, payload: Dict, meta: Optional[Dict] = None
) -> Dict:
    return {
        "id": rid,
        "status": STATUS_OK,
        "payload": payload,
        "meta": meta or {},
    }


def rejected_response(
    rid: Any, code: str, message: str, retry_after: float
) -> Dict:
    return {
        "id": rid,
        "status": STATUS_REJECTED,
        "error": {"code": code, "message": message},
        "meta": {"retry_after": retry_after},
    }


def error_response(rid: Any, code: str, message: str) -> Dict:
    return {
        "id": rid,
        "status": STATUS_ERROR,
        "error": {"code": code, "message": message},
    }
