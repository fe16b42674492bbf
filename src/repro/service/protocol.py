"""Wire protocol: newline-delimited JSON requests and responses.

One request per line, one response per line, responses in request order
per connection.  Every request carries the protocol version ``v`` (the
server rejects versions it does not speak, so clients fail loudly rather
than misparse) and an optional caller-chosen ``id`` echoed back in the
response — that is what lets a pipelining client match responses to
in-flight requests.

Requests may additionally carry a request id ``rid`` — an opaque caller
string (≤ 128 chars) echoed back in the response and propagated into the
server's spans and slow-op log lines, so one request can be chased
across client, wire and daemon (see ``docs/OBSERVABILITY.md``).  Unlike
``id`` (per-connection pipelining bookkeeping), ``rid`` is global
tracing identity.

Requests::

    {"v": 1, "op": "ingest", "id": 7, "files": [3, 4], "sizes": [10, 20],
     "site": 0}

Responses::

    {"v": 1, "id": 7, "ok": true, "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "bad-request", "message": "..."}}

Error codes are closed-world (:data:`ERROR_CODES`): clients can switch on
them without string matching.  Validation happens here, at the edge —
:mod:`repro.service.state` only ever sees well-typed values.
"""

from __future__ import annotations

import json
import sys
from typing import Any

#: Protocol version spoken by this build.  Bump on incompatible change.
PROTOCOL_VERSION = 1

#: Largest accepted request/response line (bytes), guarding the server
#: against a client streaming an unbounded line into memory.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The operations of protocol version 1.
OPS = frozenset(
    {
        "ping",
        "ingest",
        "filecule_of",
        "advise",
        "stats",
        "metrics",
        "history",
        "spans",
        "partition",
        "snapshot",
        "shutdown",
    }
)

#: ``op`` strings normalized to one interned instance each, so the
#: server's dispatch table is hit by identity and downstream code never
#: holds per-request copies of the op name.
_INTERNED_OPS = {op: sys.intern(op) for op in OPS}

#: Longest accepted tracing request id (``rid``).
MAX_RID_CHARS = 128

#: Closed set of machine-readable error codes.
ERROR_CODES = frozenset(
    {
        "bad-request",          # malformed JSON / wrong field types
        "unsupported-version",  # request "v" not spoken by this server
        "unknown-op",           # "op" not in OPS
        "too-large",            # line exceeded MAX_LINE_BYTES
        "snapshot-error",       # snapshot/restore I/O or format failure
        "internal",             # unexpected server-side exception
    }
)


class ProtocolError(Exception):
    """A request the server refuses, with a machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


class ServiceError(ProtocolError):
    """Client-side mirror of a failed response (``ok: false``)."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode(obj: dict[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def encode_request(op: str, request_id: int | None = None, **fields) -> bytes:
    """Serialize one request line."""
    obj: dict[str, Any] = {"v": PROTOCOL_VERSION, "op": op}
    if request_id is not None:
        obj["id"] = request_id
    obj.update(fields)
    return _encode(obj)


def ok_response(
    request_id, result: dict[str, Any], rid: str | None = None
) -> dict[str, Any]:
    response = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }
    if rid is not None:
        response["rid"] = rid
    return response


def error_response(
    request_id, code: str, message: str, rid: str | None = None
) -> dict[str, Any]:
    if code not in ERROR_CODES:  # defensive: never emit an unknown code
        code = "internal"
    response = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if rid is not None:
        response["rid"] = rid
    return response


def encode_response(response: dict[str, Any]) -> bytes:
    return _encode(response)


#: Pre-rendered wire shape of a successful ingest receipt.  Ingest is
#: the hot op (one per job); ``%``-formatting five integers into this
#: template is ~10x cheaper than building the response dict and running
#: ``json.dumps`` over it.  Only used when the request id is a plain int
#: and no tracing ``rid`` needs echoing — every other shape goes through
#: :func:`encode_response`.
INGEST_OK_TEMPLATE = (
    b'{"v":1,"id":%d,"ok":true,"result":{"job_seq":%d,"n_files":%d,'
    b'"n_classes":%d,"site_hits":%d}}\n'
)

#: Wire shape of any successful response whose result payload is already
#: JSON bytes — used with pre-encoded results (the memoized
#: ``filecule_of`` read path).  Same int-id/no-rid restriction as
#: :data:`INGEST_OK_TEMPLATE`.
RESULT_OK_TEMPLATE = b'{"v":1,"id":%d,"ok":true,"result":%s}\n'


# ----------------------------------------------------------------------
# decoding + validation
# ----------------------------------------------------------------------
def _require_int(obj: dict, key: str, *, minimum: int = 0) -> int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError("bad-request", f"{key!r} must be an integer")
    if value < minimum:
        raise ProtocolError("bad-request", f"{key!r} must be >= {minimum}")
    return value


_INT_ONLY = frozenset({int})


def _require_int_list(obj: dict, key: str) -> list[int]:
    value = obj.get(key)
    if type(value) is not list:
        raise ProtocolError("bad-request", f"{key!r} must be a list of integers")
    # Hot path: the whole walk runs in C.  ``map(type, ...)`` + a
    # one-element set comparison rejects bools (subclass, different
    # type) and floats without executing per-item bytecode, and the
    # validated list is returned as-is instead of being rebuilt.
    if not value:
        return value
    if set(map(type, value)) == _INT_ONLY and min(value) >= 0:
        return value
    raise ProtocolError(
        "bad-request", f"{key!r} must contain non-negative integers"
    )


def decode_request(line: bytes | str) -> dict[str, Any]:
    """Parse and validate one request line into a normalized dict.

    The returned dict always has ``op`` and ``id`` keys plus the
    validated op-specific fields; unknown extra fields are dropped (they
    are reserved for future protocol versions).
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                "too-large", f"request line exceeds {MAX_LINE_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-request", f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")

    version = obj.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-version",
            f"server speaks protocol {PROTOCOL_VERSION}, request used {version!r}",
        )

    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError("unknown-op", f"unknown op {op!r}")
    op = _INTERNED_OPS[op]  # canonical instance: dispatch by identity

    request: dict[str, Any] = {"op": op, "id": obj.get("id")}

    rid = obj.get("rid")
    if rid is not None:
        if not isinstance(rid, str) or not rid or len(rid) > MAX_RID_CHARS:
            raise ProtocolError(
                "bad-request",
                f"'rid' must be a non-empty string of <= {MAX_RID_CHARS} chars",
            )
        request["rid"] = rid  # absent when the caller sent none

    if op == "ingest":
        files = _require_int_list(obj, "files")
        request["files"] = files
        if "sizes" in obj and obj["sizes"] is not None:
            sizes = _require_int_list(obj, "sizes")
            if len(sizes) != len(files):
                raise ProtocolError(
                    "bad-request",
                    f"'sizes' length {len(sizes)} != 'files' length {len(files)}",
                )
            request["sizes"] = sizes
        else:
            request["sizes"] = None
        request["site"] = _require_int(obj, "site") if "site" in obj else 0
    elif op == "filecule_of":
        request["file"] = _require_int(obj, "file")
    elif op == "advise":
        request["files"] = _require_int_list(obj, "files")
        request["site"] = _require_int(obj, "site") if "site" in obj else 0
    elif op == "snapshot":
        path = obj.get("path")
        if path is not None and not isinstance(path, str):
            raise ProtocolError("bad-request", "'path' must be a string")
        request["path"] = path
    elif op == "history" or op == "spans":
        # Optional tail cap: at most the last N points per series
        # (history) or the last N spans (spans).
        if obj.get("last") is not None:
            request["last"] = _require_int(obj, "last", minimum=1)
    # ping / stats / metrics / partition / shutdown carry no arguments

    return request
