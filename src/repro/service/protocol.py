"""The lock service's wire protocol: length-prefixed JSON frames.

Every frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Every message carries the versioned envelope of
:mod:`repro.core.serialize` (``{"v": 1, ...}``); a peer meeting an
unknown version answers with (or raises) a clear error instead of
guessing.  Requests and responses are correlated by a client-chosen
``id``, so one connection multiplexes any number of in-flight requests —
a blocked ``lock`` does not stall the heartbeats or admin queries that
share its socket.

Requests::

    {"v": 1, "id": 7, "op": "lock",
     "tid": 3, "rid": "R1", "mode": "X", "wait": true, "timeout": 2.0}

Responses::

    {"v": 1, "id": 7, "ok": true, "status": "granted", "epoch": 0}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "not-owner", "message": "..."}, "epoch": 0}

A reply carries what its reader reads: a ``lock`` reply its ``status``
(``granted``/``blocked``/``timeout``/``aborted``), a ``commit`` or
``abort`` reply the ``tid`` it ended.

Operations (see :mod:`repro.service.server` for semantics): ``hello``,
``resume``, ``heartbeat``, ``begin``, ``lock``, ``commit``, ``abort``,
``batch``, ``detect``, ``inspect``, ``graph``, ``dump``, ``log``,
``stats``, ``metrics``, ``spans``, ``holding``, ``deadlocked``,
``goodbye``.  Any other ``op`` answers
``bad-op`` and leaves the session usable.

A journaled server stamps its **restart epoch** (how many times it has
booted on its journal) into every response frame as ``epoch``; a jump
mid-conversation tells the client the server was reincarnated.  The
``hello`` reply carries a per-session ``token``; after a restart the
client's first frame may be ``resume`` instead of ``hello``, presenting
session id and token to reclaim a lease the server recovered from its
journal (the reply lists the session's surviving ``tids``)::

    {"v": 1, "id": 1, "op": "resume", "session": "S3", "token": "9f2c..."}
    {"v": 1, "id": 1, "ok": true, "epoch": 2, "session": "S3",
     "lease": 5.0, "token": "9f2c...", "tids": [7], "server": {...}}

A server that cannot honor it answers ``unknown-session`` (closed,
reaped or never journaled), ``bad-token`` or ``session-busy``.

The ``batch`` op pipelines up to :data:`MAX_BATCH_OPS` sub-operations
(``begin``/``lock``/``commit``/``abort``) in one frame; the server
applies them back-to-back as one core step — one
response frame — and answers a ``results`` list with one entry per
sub-op (each either ``{"op", "ok": true, "status"}`` for a ``lock``
and ``{"op", "ok": true, "tid"}`` for the others, or ``{"op", "ok":
false, "error": {...}}``; a failed sub-op does not abort the rest of
the batch).  ``lock`` sub-ops never wait inside a batch: a request that
cannot be granted immediately reports ``"blocked"`` (staying queued,
exactly like ``wait=false``)::

    {"v": 1, "id": 9, "op": "batch", "ops": [
        {"op": "begin", "tid": 3},
        {"op": "lock", "tid": 3, "rid": "R1", "mode": "IS"},
        {"op": "lock", "tid": 3, "rid": "R2", "mode": "X"}]}
    {"v": 1, "id": 9, "ok": true, "results": [
        {"op": "begin", "ok": true, "tid": 3},
        {"op": "lock", "ok": true, "status": "granted"},
        {"op": "lock", "ok": true, "status": "blocked"}], "epoch": 0}

A request's unknown fields are ignored: a ``lock`` frame or sub-op
that still carries the retired client-minted ``trace`` id or parent
``span`` ref is answered as if it did not.  The server keys each
request's lifecycle span by what it already knows — span id, tid and
rid (``spans`` op, ``trace-export``).

Lock-manager events travel only in a ``detect`` reply (its ``grants``
and ``repositions``) and the ``log`` op's: plain dicts built by
:func:`event_to_dict` / :func:`detection_to_dict` and rebuilt into the
:mod:`repro.lockmgr.events` tuples by :func:`event_from_dict`, so both
ends of the wire speak the same event vocabulary as the in-process
library.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Optional, Tuple

from ..core.errors import ReproError
from ..core.modes import MODE_NAMES, parse_mode
from ..lockmgr.events import Aborted, Blocked, Granted, Repositioned

#: Protocol version, stamped into every frame's envelope.
WIRE_VERSION = 1

#: Default cap on one frame's payload — a garbled length prefix must
#: not make the reader try to allocate gigabytes.  Both decode paths
#: (JSON here, binary in :mod:`.wire`) take a per-connection override.
MAX_FRAME = 8 * 1024 * 1024

#: Hard cap on the sub-operations one ``batch`` frame may carry — a
#: batch runs to completion on the event loop, so its length bounds how
#: long one client can monopolize the server.
MAX_BATCH_OPS = 256

_HEADER = struct.Struct(">I")


def _chunks(markers: Dict[int, Any], sort_keys: bool):
    """The C encoder ``JSONEncoder(...).encode`` builds per call (or,
    without the accelerator, that method in its call shape); it marks
    the containers it is inside in ``markers``."""
    encoder = json.JSONEncoder(separators=(",", ":"), sort_keys=sort_keys)
    if json.encoder.c_make_encoder is None:
        return lambda obj, _indent: (encoder.encode(obj),)
    return json.encoder.c_make_encoder(
        markers, encoder.default, json.encoder.encode_basestring_ascii,
        None, ":", ",", sort_keys, False, True,
    )


def compact_encoder(sort_keys: bool = False):
    """``JSONEncoder(...).encode`` holding the C encoder that method
    builds per call (same bytes, same exceptions)."""
    markers: Dict[int, Any] = {}  # the circular-reference check's
    chunks = _chunks(markers, sort_keys)

    def encode(obj: Any) -> str:
        try:
            return "".join(chunks(obj, 0))
        except BaseException:
            markers.clear()  # a failed encode leaves its path marked
            raise

    return encode


#: The JSON decoder, built once: :func:`json_decode` and
#: :func:`split_frame` scan with it.  Same objects in.
_decode = json.JSONDecoder().decode
_scan_once = json.JSONDecoder().scan_once


def json_decode(text: str) -> Any:
    """``JSONDecoder().decode`` minus its two whitespace scans: a text
    that is not exactly one value goes to the full decoder."""
    try:
        value, end = _scan_once(text, 0)
    except StopIteration:
        return _decode(text)
    return value if end == len(text) else _decode(text)


class ProtocolError(ReproError):
    """A malformed, oversized or version-incompatible wire frame."""


class FrameTooLarge(ProtocolError):
    """A frame (announced or outgoing) exceeds the size limit.

    Split out from the generic :class:`ProtocolError` so servers can
    answer the distinct ``frame-too-large`` error code instead of a
    bare ``protocol`` error — a client seeing it knows to shrink its
    batch, not to suspect framing corruption.
    """


class ServiceError(ReproError):
    """An error response from the lock server.

    ``code`` is the machine-readable error code from the wire (e.g.
    ``"not-owner"``, ``"session-expired"``, ``"bad-request"``).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__("{}: {}".format(code, message))
        self.code = code
        self.message = message


# -- request fields ----------------------------------------------------------
#
# A frame's fields are a peer's bytes: every one is checked here, before
# the core step that uses it, so a malformed value answers
# ``bad-request`` with nothing parked, granted or journaled behind it.

_REQUIRED = object()


def _bad(name: str, expected: str) -> ServiceError:
    return ServiceError(
        "bad-request", "field {!r} must be {}".format(name, expected)
    )


def int_field(
    frame: Dict[str, Any], name: str, default: Any = _REQUIRED
) -> Any:
    """``frame[name]`` as an int >= 0 (every int field is a tid or a
    count); ``default`` (when given) stands for a missing or null field."""
    value = frame.get(name)
    if value is None and default is not _REQUIRED:
        return default
    if type(value) is not int or value < 0:
        raise _bad(name, "a non-negative integer")
    return value


def seconds_field(frame: Dict[str, Any], name: str) -> Optional[float]:
    """An optional duration: null/missing, or a finite number >= 0."""
    value = frame.get(name)
    if value is None:
        return None
    if type(value) not in (int, float) or not 0 <= value < float("inf"):
        raise _bad(name, "a non-negative number of seconds")
    return float(value)


def mode_field(frame: Dict[str, Any]):
    value = frame.get("mode")
    if isinstance(value, str):
        try:
            return parse_mode(value)
        except ValueError:
            pass
    raise _bad("mode", "a lock mode name")


def rid_field(frame: Dict[str, Any]) -> str:
    value = frame.get("rid")
    if not isinstance(value, str):
        raise _bad("rid", "a resource id string")
    return value


# -- framing ---------------------------------------------------------------


#: The wire's JSON encoder, built once: :func:`encode_frame` runs it
#: inline, so a frame is one call, not two.  Same bytes out.
_frame_marks: Dict[int, Any] = {}
_frame_chunks = _chunks(_frame_marks, False)


def encode_frame(
    message: Dict[str, Any],
    reply_to: Optional[str] = None,
    max_frame: int = MAX_FRAME,
) -> bytes:
    """Serialize one message to its length-prefixed wire form.
    ``reply_to`` is the codec signature's: a JSON frame names no op."""
    try:
        payload = "".join(_frame_chunks(message, 0)).encode("utf-8")
    except BaseException:
        _frame_marks.clear()  # a failed encode leaves its path marked
        raise
    if len(payload) > max_frame:
        raise FrameTooLarge(
            "frame of {} bytes exceeds the {} byte limit".format(
                len(payload), max_frame
            )
        )
    return _HEADER.pack(len(payload)) + payload


def split_frame(
    buffer, start: int = 0, max_frame: int = MAX_FRAME
) -> "Optional[Tuple[Dict[str, Any], int]]":
    """The frame that starts at ``buffer[start]``: ``(message, end)``,
    or None while it has not all arrived.  One pass: length prefix,
    UTF-8, one JSON object, wire version.

    Raises :class:`FrameTooLarge` as soon as the length prefix is
    readable (an oversized announcement is refused before its payload
    is buffered) and :class:`ProtocolError` on a payload that is not
    one JSON object of this wire version.
    """
    body = start + _HEADER.size
    if len(buffer) < body:
        return None
    (length,) = _HEADER.unpack_from(buffer, start)
    if length > max_frame:
        raise FrameTooLarge(
            "peer announced a {} byte frame (limit {})".format(
                length, max_frame
            )
        )
    end = body + length
    if len(buffer) < end:
        return None
    try:
        text = buffer[body:end].decode("utf-8")
        # ``json_decode`` inline: one scan, the full decoder only for a
        # text that is not exactly one value.
        try:
            message, stop = _scan_once(text, 0)
        except StopIteration:
            stop = -1
        if stop != len(text):
            message = _decode(text)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError("undecodable frame: {}".format(exc)) from exc
    if type(message) is not dict:
        raise ProtocolError(
            "frame must be a JSON object, got {}".format(
                type(message).__name__
            )
        )
    version = message.get("v", WIRE_VERSION)
    if version != WIRE_VERSION:
        raise ProtocolError(
            "unsupported wire version {!r} (this peer speaks version "
            "{})".format(version, WIRE_VERSION)
        )
    return message, end


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse and version-check one frame's payload (its length prefix
    already read)."""
    framed = _HEADER.pack(len(payload)) + payload
    return split_frame(framed, 0, len(payload))[0]


# -- message constructors --------------------------------------------------


def request(request_id: int, op: str, **fields: Any) -> Dict[str, Any]:
    """Build a request frame body."""
    message = {"v": WIRE_VERSION, "id": request_id, "op": op}
    message.update(fields)
    return message


def ok(request_id: Optional[int], **fields: Any) -> Dict[str, Any]:
    """Build a success response frame body."""
    message = {"v": WIRE_VERSION, "id": request_id, "ok": True}
    message.update(fields)
    return message


def error(
    request_id: Optional[int], code: str, message: str
) -> Dict[str, Any]:
    """Build an error response frame body."""
    return {
        "v": WIRE_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def reply_error(response: Dict[str, Any]) -> ServiceError:
    """The :class:`ServiceError` an error response carries."""
    detail = response.get("error") or {}
    return ServiceError(
        str(detail.get("code", "error")),
        str(detail.get("message", "unspecified server error")),
    )


# -- event payloads --------------------------------------------------------


def event_to_dict(event: object) -> Dict[str, Any]:
    """One lock-manager event as a JSON-ready dict."""
    if isinstance(event, Granted):
        return {
            "type": "granted",
            "tid": event.tid,
            "rid": event.rid,
            "mode": MODE_NAMES[event.mode],
            "immediate": event.immediate,
        }
    if isinstance(event, Blocked):
        return {
            "type": "blocked",
            "tid": event.tid,
            "rid": event.rid,
            "mode": MODE_NAMES[event.mode],
            "conversion": event.conversion,
        }
    if isinstance(event, Aborted):
        return {"type": "aborted", "tid": event.tid, "reason": event.reason}
    if isinstance(event, Repositioned):
        return {
            "type": "repositioned",
            "rid": event.rid,
            "delayed": list(event.delayed),
        }
    raise ProtocolError(
        "unknown event type {}".format(type(event).__name__)
    )


def event_from_dict(data: Dict[str, Any]) -> object:
    """Rebuild a lock-manager event from its wire dict."""
    kind = data.get("type")
    if kind == "granted":
        return Granted(
            tid=int(data["tid"]),
            rid=data["rid"],
            mode=parse_mode(data["mode"]),
            immediate=bool(data.get("immediate", False)),
        )
    if kind == "blocked":
        return Blocked(
            tid=int(data["tid"]),
            rid=data["rid"],
            mode=parse_mode(data["mode"]),
            conversion=bool(data.get("conversion", False)),
        )
    if kind == "aborted":
        return Aborted(tid=int(data["tid"]), reason=data.get("reason", ""))
    if kind == "repositioned":
        return Repositioned(
            rid=data["rid"], delayed=tuple(data.get("delayed", ()))
        )
    raise ProtocolError("unknown event type {!r}".format(kind))


def detection_to_dict(result) -> Dict[str, Any]:
    """A :class:`~repro.core.detection.DetectionResult` as a wire dict."""
    return {
        "deadlock_found": result.deadlock_found,
        "abort_free": result.abort_free,
        "aborted": list(result.aborted),
        "spared": list(result.spared),
        "grants": [event_to_dict(event) for event in result.grants],
        "repositions": [
            event_to_dict(event) for event in result.repositions
        ],
        "resolutions": [
            {
                "cycle": list(resolution.cycle),
                "chosen": str(resolution.chosen),
                "kind": (
                    resolution.chosen.kind
                    if resolution.chosen is not None
                    else None
                ),
            }
            for resolution in result.resolutions
        ],
        "stats": {
            "transactions": result.stats.transactions,
            "edges_examined": result.stats.edges_examined,
            "cycles_found": result.stats.cycles_found,
            "tdr1_applied": result.stats.tdr1_applied,
            "tdr2_applied": result.stats.tdr2_applied,
        },
    }
