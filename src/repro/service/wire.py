"""Negotiated binary wire framing (wire version 2).

PR 5 made the lock core fast enough that the length-prefixed JSON
protocol became the tax; this module is the cure.  A v2 frame is a
fixed 14-byte struct-packed header followed by a payload encoded by a
hand-rolled, dependency-free codec::

    offset  size  field
    0       2     magic  b"RW"
    2       1     wire version (2)
    3       1     flags
    4       1     opcode
    5       1     reserved (0)
    6       4     request id (big-endian u32; see FLAG_ID_NULL)
    10      4     payload length (big-endian u32)

Flags: ``FLAG_JSON`` (payload is the UTF-8 JSON of the whole message —
the escape hatch for cold/admin ops), ``FLAG_RESPONSE`` (payload is a
response body for ``opcode``), ``FLAG_WHOLE`` (payload is the whole
message as one structural value — the fallback when a message does not
fit its op's fast shape), ``FLAG_ID_NULL`` (the message's ``id`` is
JSON ``null``; the header id field is meaningless).

Hot ops (``lock``, ``batch``, ``heartbeat``, ``commit``, ``abort``,
``begin``) get specialized field-level codecs: no key strings on the wire, mode/status names as one-byte
table indexes, optional fields behind a presence mask.  Everything
else — and any message whose shape the fast packers do not recognise —
travels as a structural value (a msgpack-like tagged encoding of the
JSON data model: None/bool/int/float/str/list/dict) or as JSON behind
``FLAG_JSON``.  Decoding always rebuilds the exact v1 message dict, so
``decode(encode(m)) == m`` holds for every JSON-safe message: the
binary format is a *transport* encoding of the same message vocabulary,
which is what the hypothesis equivalence suite pins down.

Negotiation
-----------

The handshake is always JSON: a client that wants v2 adds ``"wire": 2``
to its ``hello`` (or ``resume``) frame.  A v2-capable server grants the
highest version both sides speak and stamps it into the reply as a
top-level ``"wire"`` field; both sides switch codecs for every frame
*after* the handshake exchange.  Servers ignore a missing/absurd
``wire`` field (the connection simply stays on JSON v1), so existing
``{"v": 1}`` clients keep working bit-for-bit, and a v2 client talking
to an old server falls back to JSON the same way.
"""

from __future__ import annotations

import struct
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.modes import LockMode
from .protocol import (
    FrameTooLarge,
    MAX_FRAME,
    ProtocolError,
    encode_frame,
    json_decode,
    json_encode,
    split_frame,
)

#: The two wire versions this build speaks.
WIRE_JSON = 1
WIRE_BINARY = 2
SUPPORTED_WIRES = (WIRE_JSON, WIRE_BINARY)

MAGIC = b"RW"

_HEADER = struct.Struct(">2sBBBBII")
HEADER_SIZE = _HEADER.size  # 14

FLAG_JSON = 0x01
FLAG_RESPONSE = 0x02
FLAG_WHOLE = 0x04
FLAG_ID_NULL = 0x08

OP_OBJ = 0
OP_LOCK = 1
OP_BATCH = 2
OP_HEARTBEAT = 3
OP_COMMIT = 4
OP_ABORT = 5
# Opcodes 6 and 7 carried the retired cluster ops; they stay unassigned,
# so a frame using them takes the unknown-opcode path.
OP_BEGIN = 8
OP_ERROR = 9

_OPCODES = {
    "lock": OP_LOCK,
    "batch": OP_BATCH,
    "heartbeat": OP_HEARTBEAT,
    "commit": OP_COMMIT,
    "abort": OP_ABORT,
    "begin": OP_BEGIN,
}
_OP_NAMES = {code: name for name, code in _OPCODES.items()}

#: One-byte tables for the names that dominate hot frames.  Index 0xFF
#: means "inline string follows" so pluggable mode systems and future
#: statuses stay representable.
_MODE_NAMES = tuple(mode.name for mode in LockMode)
_MODE_INDEX = {name: i for i, name in enumerate(_MODE_NAMES)}
_STATUS_NAMES = ("granted", "blocked", "timeout", "aborted", "parked")
_STATUS_INDEX = {name: i for i, name in enumerate(_STATUS_NAMES)}
_ESCAPE = 0xFF


class _Mismatch(Exception):
    """A message does not fit its op's fast shape (fall back)."""


# -- structural value codec ------------------------------------------------
#
# A tagged big-endian encoding of the JSON data model.  Tags follow the
# msgpack layout where convenient (fixint/fixstr/fixarray/fixmap) —
# hand-rolled, no dependency.

_F64 = struct.Struct(">d")
_I16 = struct.Struct(">h")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


def _encode_value(out: bytearray, value: Any) -> None:
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        n = len(data)
        if n < 32:
            out.append(0xA0 | n)
        elif n < 256:
            out.append(0xD9)
            out.append(n)
        elif n < 65536:
            out.append(0xDA)
            out += _U16.pack(n)
        else:
            out.append(0xDB)
            out += _U32.pack(n)
        out += data
    elif kind is bool:
        out.append(0xC3 if value else 0xC2)
    elif kind is int:
        if -32 <= value < 128:
            out.append(value & 0xFF)
        elif -32768 <= value < 32768:
            out.append(0xD1)
            out += _I16.pack(value)
        elif -2147483648 <= value < 2147483648:
            out.append(0xD2)
            out += _I32.pack(value)
        elif -(1 << 63) <= value < (1 << 63):
            out.append(0xD3)
            out += _I64.pack(value)
        else:  # arbitrary precision: decimal string
            data = str(value).encode("ascii")
            out.append(0xC7)
            out += _U32.pack(len(data))
            out += data
    elif kind is float:
        out.append(0xCB)
        out += _F64.pack(value)
    elif value is None:
        out.append(0xC0)
    elif kind is list or kind is tuple:
        n = len(value)
        if n < 16:
            out.append(0x90 | n)
        elif n < 65536:
            out.append(0xDC)
            out += _U16.pack(n)
        else:
            out.append(0xDD)
            out += _U32.pack(n)
        for item in value:
            _encode_value(out, item)
    elif kind is dict:
        n = len(value)
        if n < 16:
            out.append(0x80 | n)
        elif n < 65536:
            out.append(0xDE)
            out += _U16.pack(n)
        else:
            out.append(0xDF)
            out += _U32.pack(n)
        for key, item in value.items():
            if type(key) is not str:
                raise ProtocolError(
                    "binary frames need string keys, got {!r}".format(key)
                )
            _encode_value(out, key)
            _encode_value(out, item)
    else:
        raise ProtocolError(
            "value of type {} is not wire-encodable".format(kind.__name__)
        )


def _decode_value(buf, pos: int) -> Tuple[Any, int]:
    try:
        tag = buf[pos]
    except IndexError:
        raise ProtocolError("binary payload truncated") from None
    pos += 1
    if tag < 0x80:  # positive fixint
        return tag, pos
    if tag >= 0xE0:  # negative fixint
        return tag - 256, pos
    if 0xA0 <= tag < 0xC0:  # fixstr
        n = tag & 0x1F
        return _take_str(buf, pos, n)
    if 0x80 <= tag < 0x90:  # fixmap
        return _take_map(buf, pos, tag & 0x0F)
    if 0x90 <= tag < 0xA0:  # fixarray
        return _take_list(buf, pos, tag & 0x0F)
    try:
        if tag == 0xC0:
            return None, pos
        if tag == 0xC2:
            return False, pos
        if tag == 0xC3:
            return True, pos
        if tag == 0xCB:
            return _F64.unpack_from(buf, pos)[0], pos + 8
        if tag == 0xD1:
            return _I16.unpack_from(buf, pos)[0], pos + 2
        if tag == 0xD2:
            return _I32.unpack_from(buf, pos)[0], pos + 4
        if tag == 0xD3:
            return _I64.unpack_from(buf, pos)[0], pos + 8
        if tag == 0xC7:  # big int
            n = _U32.unpack_from(buf, pos)[0]
            pos += 4
            end = pos + n
            if end > len(buf):
                raise ProtocolError("binary payload truncated")
            return int(bytes(buf[pos:end])), end
        if tag == 0xD9:
            return _take_str(buf, pos + 1, buf[pos])
        if tag == 0xDA:
            return _take_str(buf, pos + 2, _U16.unpack_from(buf, pos)[0])
        if tag == 0xDB:
            return _take_str(buf, pos + 4, _U32.unpack_from(buf, pos)[0])
        if tag == 0xDC:
            return _take_list(buf, pos + 2, _U16.unpack_from(buf, pos)[0])
        if tag == 0xDD:
            return _take_list(buf, pos + 4, _U32.unpack_from(buf, pos)[0])
        if tag == 0xDE:
            return _take_map(buf, pos + 2, _U16.unpack_from(buf, pos)[0])
        if tag == 0xDF:
            return _take_map(buf, pos + 4, _U32.unpack_from(buf, pos)[0])
    except struct.error:
        raise ProtocolError("binary payload truncated") from None
    raise ProtocolError("unknown value tag 0x{:02x}".format(tag))


def _take_str(buf, pos: int, n: int) -> Tuple[str, int]:
    end = pos + n
    if end > len(buf):
        raise ProtocolError("binary payload truncated")
    try:
        return str(buf[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError("undecodable string: {}".format(exc)) from exc


def _take_list(buf, pos: int, n: int) -> Tuple[List[Any], int]:
    items = []
    append = items.append
    for _ in range(n):
        value, pos = _decode_value(buf, pos)
        append(value)
    return items, pos


def _take_map(buf, pos: int, n: int) -> Tuple[Dict[str, Any], int]:
    result: Dict[str, Any] = {}
    for _ in range(n):
        key, pos = _decode_value(buf, pos)
        if type(key) is not str:
            raise ProtocolError("map keys must be strings")
        value, pos = _decode_value(buf, pos)
        result[key] = value
    return result, pos


# -- small field helpers ---------------------------------------------------


def _encode_name(out: bytearray, name: str, index: Dict[str, int]) -> None:
    code = index.get(name)
    if code is None:
        if type(name) is not str:
            raise _Mismatch()
        out.append(_ESCAPE)
        _encode_value(out, name)
    else:
        out.append(code)


def _decode_name(buf, pos: int, names: Tuple[str, ...]) -> Tuple[str, int]:
    code = buf[pos]
    pos += 1
    if code == _ESCAPE:
        name, pos = _decode_value(buf, pos)
        if type(name) is not str:
            raise ProtocolError("name escape must carry a string")
        return name, pos
    if code >= len(names):
        raise ProtocolError("unknown name index {}".format(code))
    return names[code], pos


def _need_int(value: Any) -> int:
    if type(value) is not int:
        raise _Mismatch()
    return value


def _need_str(value: Any) -> str:
    if type(value) is not str:
        raise _Mismatch()
    return value


# -- event payloads --------------------------------------------------------
#
# Lock-manager events ride inside lock/commit/batch responses.  Event
# kind byte: 0 = None, 1..4 = the four event dict shapes, 0xFE =
# structural fallback for anything else.

_EV_NONE = 0
_EV_GRANTED = 1
_EV_BLOCKED = 2
_EV_ABORTED = 3
_EV_REPOSITIONED = 4
_EV_OTHER = 0xFE


def _encode_event(out: bytearray, event: Any) -> None:
    if event is None:
        out.append(_EV_NONE)
        return
    mark = len(out)
    try:
        if type(event) is not dict:
            raise _Mismatch()
        kind = event.get("type")
        if kind == "granted" and len(event) == 5:
            out.append(_EV_GRANTED)
            _encode_value(out, _need_int(event["tid"]))
            _encode_value(out, _need_str(event["rid"]))
            _encode_name(out, _need_str(event["mode"]), _MODE_INDEX)
            immediate = event["immediate"]
            if type(immediate) is not bool:
                raise _Mismatch()
            out.append(1 if immediate else 0)
        elif kind == "blocked" and len(event) == 5:
            out.append(_EV_BLOCKED)
            _encode_value(out, _need_int(event["tid"]))
            _encode_value(out, _need_str(event["rid"]))
            _encode_name(out, _need_str(event["mode"]), _MODE_INDEX)
            conversion = event["conversion"]
            if type(conversion) is not bool:
                raise _Mismatch()
            out.append(1 if conversion else 0)
        elif kind == "aborted" and len(event) == 3:
            out.append(_EV_ABORTED)
            _encode_value(out, _need_int(event["tid"]))
            _encode_value(out, _need_str(event["reason"]))
        elif kind == "repositioned" and len(event) == 3:
            delayed = event["delayed"]
            if type(delayed) is not list:
                raise _Mismatch()
            out.append(_EV_REPOSITIONED)
            _encode_value(out, _need_str(event["rid"]))
            _encode_value(out, delayed)
        else:
            raise _Mismatch()
    except (KeyError, _Mismatch):
        del out[mark:]
        out.append(_EV_OTHER)
        _encode_value(out, event)


def _decode_event(buf, pos: int) -> Tuple[Any, int]:
    kind = buf[pos]
    pos += 1
    if kind == _EV_NONE:
        return None, pos
    if kind == _EV_OTHER:
        return _decode_value(buf, pos)
    if kind == _EV_GRANTED or kind == _EV_BLOCKED:
        tid, pos = _decode_value(buf, pos)
        rid, pos = _decode_value(buf, pos)
        mode, pos = _decode_name(buf, pos, _MODE_NAMES)
        flag = buf[pos] != 0
        pos += 1
        if kind == _EV_GRANTED:
            return {
                "type": "granted",
                "tid": tid,
                "rid": rid,
                "mode": mode,
                "immediate": flag,
            }, pos
        return {
            "type": "blocked",
            "tid": tid,
            "rid": rid,
            "mode": mode,
            "conversion": flag,
        }, pos
    if kind == _EV_ABORTED:
        tid, pos = _decode_value(buf, pos)
        reason, pos = _decode_value(buf, pos)
        return {"type": "aborted", "tid": tid, "reason": reason}, pos
    if kind == _EV_REPOSITIONED:
        rid, pos = _decode_value(buf, pos)
        delayed, pos = _decode_value(buf, pos)
        return {"type": "repositioned", "rid": rid, "delayed": delayed}, pos
    raise ProtocolError("unknown event kind {}".format(kind))


# -- request payload codecs ------------------------------------------------
#
# Each _req_* packer raises _Mismatch when the message has extra,
# missing or oddly-typed fields; encode_message then falls back to the
# whole-message structural form, keeping round-trip identity for every
# input.  The strictness trick: count the optional fields present and
# require len(message) to match exactly, so unknown keys cannot be
# silently dropped.

_P_WAIT = 0x01
_P_TIMEOUT = 0x02
_P_TRACE = 0x04
_P_SPAN = 0x08
_P_TID = 0x01


def _req_lock(out: bytearray, message: Dict[str, Any]) -> None:
    expected = 6
    presence = 0
    wait = message.get("wait")
    if "wait" in message:
        if type(wait) is not bool:
            raise _Mismatch()
        presence |= _P_WAIT
        expected += 1
    if "timeout" in message:
        presence |= _P_TIMEOUT
        expected += 1
    trace = message.get("trace")
    if "trace" in message:
        if type(trace) is not str:
            raise _Mismatch()
        presence |= _P_TRACE
        expected += 1
    span = message.get("span")
    if "span" in message:
        if type(span) is not str:
            raise _Mismatch()
        presence |= _P_SPAN
        expected += 1
    if len(message) != expected:
        raise _Mismatch()
    out.append(presence)
    _encode_value(out, _need_int(message["tid"]))
    _encode_value(out, _need_str(message["rid"]))
    _encode_name(out, _need_str(message["mode"]), _MODE_INDEX)
    if presence & _P_WAIT:
        out.append(1 if wait else 0)
    if presence & _P_TIMEOUT:
        _encode_value(out, message["timeout"])
    if presence & _P_TRACE:
        _encode_value(out, trace)
    if presence & _P_SPAN:
        _encode_value(out, span)


def _dec_lock(buf, pos: int, message: Dict[str, Any]) -> int:
    presence = buf[pos]
    pos += 1
    message["tid"], pos = _decode_value(buf, pos)
    message["rid"], pos = _decode_value(buf, pos)
    message["mode"], pos = _decode_name(buf, pos, _MODE_NAMES)
    if presence & _P_WAIT:
        message["wait"] = buf[pos] != 0
        pos += 1
    if presence & _P_TIMEOUT:
        message["timeout"], pos = _decode_value(buf, pos)
    if presence & _P_TRACE:
        message["trace"], pos = _decode_value(buf, pos)
    if presence & _P_SPAN:
        message["span"], pos = _decode_value(buf, pos)
    return pos


def _req_tid_only(out: bytearray, message: Dict[str, Any]) -> None:
    if len(message) != 4:
        raise _Mismatch()
    _encode_value(out, _need_int(message["tid"]))


def _dec_tid_only(buf, pos: int, message: Dict[str, Any]) -> int:
    message["tid"], pos = _decode_value(buf, pos)
    return pos


def _req_bare(out: bytearray, message: Dict[str, Any]) -> None:
    if len(message) != 3:
        raise _Mismatch()


def _dec_bare(buf, pos: int, message: Dict[str, Any]) -> int:
    return pos


def _req_begin(out: bytearray, message: Dict[str, Any]) -> None:
    if "tid" in message:
        if len(message) != 4:
            raise _Mismatch()
        out.append(_P_TID)
        _encode_value(out, _need_int(message["tid"]))
    else:
        if len(message) != 3:
            raise _Mismatch()
        out.append(0)


def _dec_begin(buf, pos: int, message: Dict[str, Any]) -> int:
    presence = buf[pos]
    pos += 1
    if presence & _P_TID:
        message["tid"], pos = _decode_value(buf, pos)
    return pos


_SUB_BEGIN = 1
_SUB_LOCK = 2
_SUB_COMMIT = 3
_SUB_ABORT = 4
_SUB_OTHER = 0xFE


def _req_batch(out: bytearray, message: Dict[str, Any]) -> None:
    if len(message) != 4:
        raise _Mismatch()
    ops = message["ops"]
    if type(ops) is not list:
        raise _Mismatch()
    _encode_value(out, len(ops))
    for sub in ops:
        mark = len(out)
        try:
            if type(sub) is not dict:
                raise _Mismatch()
            name = sub.get("op")
            if name == "lock":
                expected = 4
                presence = 0
                trace = sub.get("trace")
                if "trace" in sub:
                    if type(trace) is not str:
                        raise _Mismatch()
                    presence |= _P_TRACE
                    expected += 1
                span = sub.get("span")
                if "span" in sub:
                    if type(span) is not str:
                        raise _Mismatch()
                    presence |= _P_SPAN
                    expected += 1
                if len(sub) != expected:
                    raise _Mismatch()
                out.append(_SUB_LOCK)
                out.append(presence)
                _encode_value(out, _need_int(sub["tid"]))
                _encode_value(out, _need_str(sub["rid"]))
                _encode_name(out, _need_str(sub["mode"]), _MODE_INDEX)
                if presence & _P_TRACE:
                    _encode_value(out, trace)
                if presence & _P_SPAN:
                    _encode_value(out, span)
            elif name == "begin":
                if "tid" in sub:
                    if len(sub) != 2:
                        raise _Mismatch()
                    out.append(_SUB_BEGIN)
                    out.append(_P_TID)
                    _encode_value(out, _need_int(sub["tid"]))
                else:
                    if len(sub) != 1:
                        raise _Mismatch()
                    out.append(_SUB_BEGIN)
                    out.append(0)
            elif name == "commit" or name == "abort":
                if len(sub) != 2:
                    raise _Mismatch()
                out.append(_SUB_COMMIT if name == "commit" else _SUB_ABORT)
                _encode_value(out, _need_int(sub["tid"]))
            else:
                raise _Mismatch()
        except (KeyError, _Mismatch):
            del out[mark:]
            out.append(_SUB_OTHER)
            _encode_value(out, sub)


def _dec_batch(buf, pos: int, message: Dict[str, Any]) -> int:
    count, pos = _decode_value(buf, pos)
    if type(count) is not int or count < 0:
        raise ProtocolError("bad batch count")
    ops: List[Any] = []
    append = ops.append
    for _ in range(count):
        kind = buf[pos]
        pos += 1
        if kind == _SUB_LOCK:
            presence = buf[pos]
            pos += 1
            sub: Dict[str, Any] = {"op": "lock"}
            sub["tid"], pos = _decode_value(buf, pos)
            sub["rid"], pos = _decode_value(buf, pos)
            sub["mode"], pos = _decode_name(buf, pos, _MODE_NAMES)
            if presence & _P_TRACE:
                sub["trace"], pos = _decode_value(buf, pos)
            if presence & _P_SPAN:
                sub["span"], pos = _decode_value(buf, pos)
        elif kind == _SUB_BEGIN:
            presence = buf[pos]
            pos += 1
            sub = {"op": "begin"}
            if presence & _P_TID:
                sub["tid"], pos = _decode_value(buf, pos)
        elif kind == _SUB_COMMIT or kind == _SUB_ABORT:
            sub = {"op": "commit" if kind == _SUB_COMMIT else "abort"}
            sub["tid"], pos = _decode_value(buf, pos)
        elif kind == _SUB_OTHER:
            sub, pos = _decode_value(buf, pos)
        else:
            raise ProtocolError("unknown batch sub-op kind {}".format(kind))
        append(sub)
    message["ops"] = ops
    return pos


_REQ_CODECS = {
    OP_LOCK: (_req_lock, _dec_lock),
    OP_BATCH: (_req_batch, _dec_batch),
    OP_HEARTBEAT: (_req_bare, _dec_bare),
    OP_COMMIT: (_req_tid_only, _dec_tid_only),
    OP_ABORT: (_req_tid_only, _dec_tid_only),
    OP_BEGIN: (_req_begin, _dec_begin),
}


# -- response payload codecs -----------------------------------------------
#
# A response dict has no "op"; the sender passes the op it answers
# (``reply_to``) so the matching packer runs and the opcode lands in
# the header for the decoder.  Success shapes are exactly what
# server.py sends (epoch always present after ``send`` stamps it);
# anything else falls back to the whole-message form.


def _ok_epoch(message: Dict[str, Any], nfields: int) -> Any:
    if message.get("ok") is not True or len(message) != nfields:
        raise _Mismatch()
    if "epoch" not in message:
        raise _Mismatch()
    return message["epoch"]


def _resp_lock(out: bytearray, message: Dict[str, Any]) -> None:
    epoch = _ok_epoch(message, 6)
    _encode_name(out, _need_str(message["status"]), _STATUS_INDEX)
    _encode_event(out, message["event"])
    _encode_value(out, epoch)


def _dec_resp_lock(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = True
    message["status"], pos = _decode_name(buf, pos, _STATUS_NAMES)
    message["event"], pos = _decode_event(buf, pos)
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


def _resp_heartbeat(out: bytearray, message: Dict[str, Any]) -> None:
    epoch = _ok_epoch(message, 6)
    _encode_value(out, message["lease"])
    _encode_value(out, message["remaining"])
    _encode_value(out, epoch)


def _dec_resp_heartbeat(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = True
    message["lease"], pos = _decode_value(buf, pos)
    message["remaining"], pos = _decode_value(buf, pos)
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


def _resp_begin(out: bytearray, message: Dict[str, Any]) -> None:
    epoch = _ok_epoch(message, 5)
    _encode_value(out, _need_int(message["tid"]))
    _encode_value(out, epoch)


def _dec_resp_begin(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = True
    message["tid"], pos = _decode_value(buf, pos)
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


def _resp_finish(out: bytearray, message: Dict[str, Any]) -> None:
    epoch = _ok_epoch(message, 6)
    grants = message["grants"]
    if type(grants) is not list:
        raise _Mismatch()
    _encode_value(out, _need_int(message["tid"]))
    _encode_value(out, len(grants))
    for event in grants:
        _encode_event(out, event)
    _encode_value(out, epoch)


def _dec_resp_finish(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = True
    message["tid"], pos = _decode_value(buf, pos)
    count, pos = _decode_value(buf, pos)
    if type(count) is not int or count < 0:
        raise ProtocolError("bad grants count")
    grants = []
    for _ in range(count):
        event, pos = _decode_event(buf, pos)
        grants.append(event)
    message["grants"] = grants
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


_RES_BEGIN = 1
_RES_LOCK = 2
_RES_FINISH_COMMIT = 3
_RES_FINISH_ABORT = 4
_RES_OTHER = 0xFE


def _resp_batch(out: bytearray, message: Dict[str, Any]) -> None:
    epoch = _ok_epoch(message, 5)
    results = message["results"]
    if type(results) is not list:
        raise _Mismatch()
    _encode_value(out, len(results))
    for result in results:
        mark = len(out)
        try:
            if type(result) is not dict or result.get("ok") is not True:
                raise _Mismatch()
            name = result.get("op")
            if name == "lock" and len(result) == 5:
                out.append(_RES_LOCK)
                _encode_value(out, _need_int(result["tid"]))
                _encode_name(
                    out, _need_str(result["status"]), _STATUS_INDEX
                )
                _encode_event(out, result["event"])
            elif name == "begin" and len(result) == 3:
                out.append(_RES_BEGIN)
                _encode_value(out, _need_int(result["tid"]))
            elif (
                (name == "commit" or name == "abort") and len(result) == 4
            ):
                grants = result["grants"]
                if type(grants) is not list:
                    raise _Mismatch()
                out.append(
                    _RES_FINISH_COMMIT
                    if name == "commit"
                    else _RES_FINISH_ABORT
                )
                _encode_value(out, _need_int(result["tid"]))
                _encode_value(out, len(grants))
                for event in grants:
                    _encode_event(out, event)
            else:
                raise _Mismatch()
        except (KeyError, _Mismatch):
            del out[mark:]
            out.append(_RES_OTHER)
            _encode_value(out, result)
    _encode_value(out, epoch)


def _dec_resp_batch(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = True
    count, pos = _decode_value(buf, pos)
    if type(count) is not int or count < 0:
        raise ProtocolError("bad results count")
    results: List[Any] = []
    append = results.append
    for _ in range(count):
        kind = buf[pos]
        pos += 1
        if kind == _RES_LOCK:
            result: Dict[str, Any] = {"op": "lock", "ok": True}
            result["tid"], pos = _decode_value(buf, pos)
            result["status"], pos = _decode_name(buf, pos, _STATUS_NAMES)
            result["event"], pos = _decode_event(buf, pos)
        elif kind == _RES_BEGIN:
            result = {"op": "begin", "ok": True}
            result["tid"], pos = _decode_value(buf, pos)
        elif kind == _RES_FINISH_COMMIT or kind == _RES_FINISH_ABORT:
            result = {
                "op": "commit"
                if kind == _RES_FINISH_COMMIT
                else "abort",
                "ok": True,
            }
            result["tid"], pos = _decode_value(buf, pos)
            n, pos = _decode_value(buf, pos)
            if type(n) is not int or n < 0:
                raise ProtocolError("bad grants count")
            grants = []
            for _ in range(n):
                event, pos = _decode_event(buf, pos)
                grants.append(event)
            result["grants"] = grants
        elif kind == _RES_OTHER:
            result, pos = _decode_value(buf, pos)
        else:
            raise ProtocolError(
                "unknown batch result kind {}".format(kind)
            )
        append(result)
    message["results"] = results
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


def _resp_error(out: bytearray, message: Dict[str, Any]) -> None:
    if message.get("ok") is not False or len(message) != 5:
        raise _Mismatch()
    if "epoch" not in message:
        raise _Mismatch()
    detail = message["error"]
    if type(detail) is not dict or len(detail) != 2:
        raise _Mismatch()
    _encode_value(out, _need_str(detail["code"]))
    _encode_value(out, _need_str(detail["message"]))
    _encode_value(out, message["epoch"])


def _dec_resp_error(buf, pos: int, message: Dict[str, Any]) -> int:
    message["ok"] = False
    code, pos = _decode_value(buf, pos)
    text, pos = _decode_value(buf, pos)
    message["error"] = {"code": code, "message": text}
    message["epoch"], pos = _decode_value(buf, pos)
    return pos


_RESP_CODECS = {
    OP_LOCK: (_resp_lock, _dec_resp_lock),
    OP_HEARTBEAT: (_resp_heartbeat, _dec_resp_heartbeat),
    OP_BEGIN: (_resp_begin, _dec_resp_begin),
    OP_COMMIT: (_resp_finish, _dec_resp_finish),
    OP_ABORT: (_resp_finish, _dec_resp_finish),
    OP_BATCH: (_resp_batch, _dec_resp_batch),
    OP_ERROR: (_resp_error, _dec_resp_error),
}


# -- whole-frame encode/decode ---------------------------------------------


def _header_id(message: Dict[str, Any]) -> Tuple[int, int]:
    """(header id, flags) for the message's ``id``; _Mismatch when the
    id cannot ride in the header."""
    request_id = message.get("id")
    if request_id is None:
        if "id" not in message:
            raise _Mismatch()
        return 0, FLAG_ID_NULL
    if type(request_id) is int and 0 <= request_id <= 0xFFFFFFFF:
        return request_id, 0
    raise _Mismatch()


def encode_binary(
    message: Dict[str, Any],
    reply_to: Optional[str] = None,
    max_frame: int = MAX_FRAME,
) -> bytes:
    """One message as a v2 binary frame.

    ``reply_to`` names the op a response answers (responses carry no
    ``op`` field), selecting its specialized codec; requests find their
    own codec from ``message["op"]``.  Messages that fit no fast shape
    fall back to the whole-message structural form — identity is never
    sacrificed for speed.
    """
    out = bytearray(HEADER_SIZE)
    opcode = OP_OBJ
    flags = 0
    try:
        version = message.get("v", WIRE_JSON)
        if version != WIRE_JSON or type(version) is not int or "v" not in message:
            raise _Mismatch()
        header_id, flags = _header_id(message)
        op = message.get("op")
        if op is not None:
            opcode = _OPCODES.get(op)
            if opcode is None:
                raise _Mismatch()
            _REQ_CODECS[opcode][0](out, message)
        elif "ok" in message:
            flags |= FLAG_RESPONSE
            if message.get("ok") is False:
                opcode = OP_ERROR
            else:
                opcode = _OPCODES.get(reply_to or "")
                if opcode is None:
                    raise _Mismatch()
            _RESP_CODECS[opcode][0](out, message)
        else:
            raise _Mismatch()
    except (KeyError, _Mismatch):
        del out[HEADER_SIZE:]
        opcode = OP_OBJ
        flags = FLAG_WHOLE
        header_id = 0
        try:
            _encode_value(out, message)
        except RecursionError:
            raise ProtocolError("frame nests too deeply") from None
    if len(out) - HEADER_SIZE > max_frame:
        raise FrameTooLarge(
            "frame of {} bytes exceeds the {} byte limit".format(
                len(out) - HEADER_SIZE, max_frame
            )
        )
    _HEADER.pack_into(
        out,
        0,
        MAGIC,
        WIRE_BINARY,
        flags,
        opcode,
        0,
        header_id,
        len(out) - HEADER_SIZE,
    )
    return bytes(out)


def decode_binary_payload(
    flags: int, opcode: int, header_id: int, payload: bytes
) -> Dict[str, Any]:
    """Rebuild the v1 message dict from one v2 frame's parts."""
    if flags & FLAG_JSON:
        try:
            message = json_decode(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(
                "undecodable frame: {}".format(exc)
            ) from exc
        if not isinstance(message, dict):
            raise ProtocolError("frame must decode to an object")
        return message
    if flags & FLAG_WHOLE:
        message, pos = _decode_value(payload, 0)
        if pos != len(payload):
            raise ProtocolError(
                "{} trailing bytes after frame".format(len(payload) - pos)
            )
        if not isinstance(message, dict):
            raise ProtocolError("frame must decode to an object")
        return message
    message: Dict[str, Any] = {
        "v": WIRE_JSON,
        "id": None if flags & FLAG_ID_NULL else header_id,
    }
    if flags & FLAG_RESPONSE:
        table = _RESP_CODECS
    else:
        name = _OP_NAMES.get(opcode)
        if name is None:
            raise ProtocolError("unknown opcode {}".format(opcode))
        message["op"] = name
        table = _REQ_CODECS
    pair = table.get(opcode)
    if pair is None:
        raise ProtocolError("unknown opcode {}".format(opcode))
    try:
        pos = pair[1](payload, 0, message)
    except IndexError:
        raise ProtocolError("binary payload truncated") from None
    if pos != len(payload):
        raise ProtocolError(
            "{} trailing bytes after frame".format(len(payload) - pos)
        )
    return message


def split_binary_frame(
    buffer, start: int = 0, max_frame: int = MAX_FRAME
) -> Optional[Tuple[Dict[str, Any], int]]:
    """The v2 analogue of :func:`~.protocol.split_frame`: the frame at
    ``buffer[start]`` as ``(message, end)``, None while incomplete.  A
    bad magic or version and an oversized announcement are refused as
    soon as the 14 header bytes are there."""
    body = start + HEADER_SIZE
    if len(buffer) < body:
        return None
    magic, version, flags, opcode, _, header_id, length = (
        _HEADER.unpack_from(buffer, start)
    )
    if magic != MAGIC:
        raise ProtocolError(
            "bad frame magic {!r} (expected {!r})".format(magic, MAGIC)
        )
    if version != WIRE_BINARY:
        raise ProtocolError(
            "unsupported wire version {} (this peer speaks {})".format(
                version, WIRE_BINARY
            )
        )
    if length > max_frame:
        raise FrameTooLarge(
            "peer announced a {} byte frame (limit {})".format(
                length, max_frame
            )
        )
    end = body + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[body:end])
    try:
        return decode_binary_payload(flags, opcode, header_id, payload), end
    except (IndexError, ValueError, struct.error, RecursionError) as exc:
        # Whatever a hostile payload trips in the field decoders is the
        # peer's protocol violation, not this process's crash.
        raise ProtocolError(
            "undecodable binary frame ({})".format(type(exc).__name__)
        ) from exc


# -- codec objects ---------------------------------------------------------


class JsonCodec:
    """Wire v1: length-prefixed JSON (see :mod:`.protocol`)."""

    name = "json"
    wire = WIRE_JSON

    @staticmethod
    def encode(
        message: Dict[str, Any],
        reply_to: Optional[str] = None,
        max_frame: int = MAX_FRAME,
    ) -> bytes:
        return encode_frame(message, max_frame=max_frame)

    split = staticmethod(split_frame)


class BinaryCodec:
    """Wire v2: struct headers + hand-rolled payload codecs."""

    name = "binary"
    wire = WIRE_BINARY

    encode = staticmethod(encode_binary)
    split = staticmethod(split_binary_frame)


JSON_CODEC = JsonCodec()
BINARY_CODEC = BinaryCodec()


class FrameBuffer:
    """Bytes received on one connection and the frames complete in
    them — the decode loop the server and the client share.

    :attr:`codec` is read once per frame, so the handshake that
    switches it takes effect for the very next frame even when that
    frame arrived in the same segment.  A refused frame raises from
    :meth:`feed` (:class:`FrameTooLarge`/:class:`ProtocolError`) and
    the buffer never holds more than one header plus ``max_frame`` of
    an incomplete frame beyond what the last segment brought.
    """

    __slots__ = ("codec", "max_frame", "_data")

    def __init__(self, max_frame: int = MAX_FRAME, codec=JSON_CODEC) -> None:
        self.codec = codec
        self.max_frame = max_frame
        self._data = bytearray()

    def __len__(self) -> int:
        return len(self._data)

    def feed(self, data: bytes):
        """Append one received segment; yields ``(message, wire size,
        decode seconds)`` for every frame now complete, in order."""
        buffer = self._data
        buffer += data
        pos = 0
        try:
            while True:
                started = perf_counter()
                found = self.codec.split(buffer, pos, self.max_frame)
                if found is None:
                    return
                message, end = found
                size, pos = end - pos, end
                yield message, size, perf_counter() - started
        finally:
            del buffer[:pos]

    def eof(self) -> None:
        """The peer closed: anything still buffered is a torn frame."""
        if self._data:
            raise ProtocolError(
                "connection closed inside a frame ({} bytes "
                "buffered)".format(len(self._data))
            )


def codec_for(wire: int):
    """The codec object for a negotiated wire version."""
    if wire == WIRE_BINARY:
        return BINARY_CODEC
    return JSON_CODEC


def negotiate(requested: Any) -> int:
    """Server side of the handshake: the wire version granted for a
    hello/resume ``wire`` field.

    An int ≥ 2 gets the binary wire (the highest version this build
    speaks); anything else — absent, 1, or unrecognisable — keeps the
    connection on JSON v1.  Never raises: a client asking for a wire
    the server does not know simply falls back, it is not an error.
    """
    if type(requested) is int and requested >= WIRE_BINARY:
        return WIRE_BINARY
    return WIRE_JSON


def resolve_wire(wire: Any = "json") -> int:
    """The wire version a client should *request*: ``wire`` is a
    version int or a codec name (``"json"``, the default, or
    ``"binary"``)."""
    if isinstance(wire, str):
        name = wire.strip().lower()
        if name in ("json", "1", "v1"):
            return WIRE_JSON
        if name in ("binary", "bin", "2", "v2"):
            return WIRE_BINARY
        raise ValueError(
            "unknown wire {!r} (expected 'json' or 'binary')".format(wire)
        )
    if wire in SUPPORTED_WIRES:
        return int(wire)
    raise ValueError("unknown wire version {!r}".format(wire))


def wire_roundtrip(
    message: Dict[str, Any], codec=BINARY_CODEC
) -> Dict[str, Any]:
    """Encode+decode one message through ``codec`` — the explorer's
    way of proving a schedule survives the wire dialect unchanged."""
    if codec.wire == WIRE_JSON:
        return json_decode(json_encode(message))
    return split_binary_frame(encode_binary(message))[0]
