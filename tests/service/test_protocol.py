"""The wire protocol: framing, versioning, event payloads."""

import json
import struct

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.events import Aborted, Blocked, Granted, Repositioned
from repro.service.protocol import (
    MAX_FRAME,
    ProtocolError,
    ServiceError,
    WIRE_VERSION,
    decode_payload,
    encode_frame,
    error,
    event_from_dict,
    event_to_dict,
    ok,
    reply_error,
    request,
    split_frame,
)
from repro.service.client import RemoteDetectionResult
from repro.service.wire import FrameBuffer

from .raw import frames_in


def read_all(data: bytes, max_frame: int = MAX_FRAME, eof: bool = True):
    """Feed raw bytes (then EOF) to the splitter; every frame in them."""
    return frames_in(data, max_frame=max_frame, eof=eof)


def read_bytes(data: bytes):
    """The first frame in ``data``; None on a clean EOF."""
    decoded = read_all(data)
    return decoded[0] if decoded else None


class TestFraming:
    def test_round_trip(self):
        message = request(7, "lock", tid=3, rid="R1", mode="X")
        assert read_bytes(encode_frame(message)) == message

    def test_two_frames_back_to_back(self):
        first = request(1, "hello")
        second = request(2, "stats")
        data = encode_frame(first) + encode_frame(second)
        assert read_all(data) == [first, second]

    def test_clean_eof_returns_none(self):
        assert read_bytes(b"") is None

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError, match="inside a frame"):
            read_bytes(b"\x00\x00")

    def test_truncated_body_raises(self):
        with pytest.raises(ProtocolError, match="inside a frame"):
            read_bytes(struct.pack(">I", 100) + b'{"v": 1}')

    def test_oversized_announcement_raises(self):
        with pytest.raises(ProtocolError, match="limit"):
            read_bytes(struct.pack(">I", MAX_FRAME + 1))

    def test_garbage_payload_raises(self):
        body = b"\xff\xfenot json"
        with pytest.raises(ProtocolError, match="undecodable"):
            read_bytes(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_raises(self):
        body = json.dumps([1, 2, 3]).encode()
        with pytest.raises(ProtocolError, match="JSON object"):
            read_bytes(struct.pack(">I", len(body)) + body)

    def test_encode_rejects_oversized_message(self):
        message = {"v": WIRE_VERSION, "blob": "x" * (MAX_FRAME + 1)}
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(message)


class TestFrameSizeGuard:
    def test_oversized_raises_frame_too_large_subclass(self):
        from repro.service.protocol import FrameTooLarge

        message = {"v": WIRE_VERSION, "blob": "x" * 2000}
        with pytest.raises(FrameTooLarge):
            encode_frame(message, max_frame=1024)
        # FrameTooLarge is a ProtocolError: existing handlers keep
        # working.
        assert issubclass(FrameTooLarge, ProtocolError)

    def test_configurable_read_limit(self):
        from repro.service.protocol import FrameTooLarge

        frame = encode_frame({"v": WIRE_VERSION, "blob": "x" * 2000})
        with pytest.raises(FrameTooLarge):
            read_all(frame, max_frame=1024)

    def test_read_limit_refuses_before_buffering(self):
        """Only the 4-byte announcement is needed for the refusal —
        a hostile length prefix cannot make the server buffer it."""
        from repro.service.protocol import FrameTooLarge

        # No payload follows; the guard must not wait for one.
        with pytest.raises(FrameTooLarge):
            read_all(struct.pack(">I", 1 << 30), max_frame=1024, eof=False)

    def test_read_frame_sized_reports_wire_size(self):
        frame = encode_frame(request(1, "heartbeat", tid=4))
        # The splitter answers the end offset; the buffer both peers
        # run it through turns that into the frame's wire size.
        message, end = split_frame(b"junk" + frame, 4)
        assert message["op"] == "heartbeat"
        assert end == 4 + len(frame)
        frames = FrameBuffer()
        ((message,), refused) = frames.feed(frame)
        assert message["op"] == "heartbeat" and refused is None
        assert len(frames) == 0 and frames.count == 1


class TestVersioning:
    def test_current_version_accepted(self):
        message = {"v": WIRE_VERSION, "op": "hello"}
        assert decode_payload(json.dumps(message).encode()) == message

    def test_missing_version_defaults_to_current(self):
        message = {"op": "hello"}
        assert decode_payload(json.dumps(message).encode()) == message

    @pytest.mark.parametrize("version", [0, 2, 99, "1", None])
    def test_unknown_version_rejected(self, version):
        with pytest.raises(ProtocolError, match="version"):
            decode_payload(
                json.dumps({"v": version, "op": "hello"}).encode()
            )

    def test_constructors_stamp_version(self):
        assert request(1, "hello")["v"] == WIRE_VERSION
        assert ok(1)["v"] == WIRE_VERSION
        assert error(1, "code", "msg")["v"] == WIRE_VERSION


class TestResponses:
    def test_reply_error_carries_the_code(self):
        exc = reply_error(error(4, "not-owner", "T1 is taken"))
        assert isinstance(exc, ServiceError)
        assert exc.code == "not-owner"
        assert exc.message == "T1 is taken"
        assert str(exc) == "not-owner: T1 is taken"

    def test_error_without_detail(self):
        exc = reply_error({"v": 1, "id": 1, "ok": False})
        assert (exc.code, exc.message) == ("error", "unspecified server error")


class TestEventPayloads:
    @pytest.mark.parametrize(
        "event",
        [
            Granted(tid=1, rid="R1", mode=LockMode.X, immediate=True),
            Granted(tid=2, rid="R2", mode=LockMode.S, immediate=False),
            Blocked(tid=3, rid="R1", mode=LockMode.IX, conversion=True),
            Aborted(tid=4, reason="deadlock victim"),
            Repositioned(rid="R2", delayed=(8, 9)),
        ],
    )
    def test_round_trip(self, event):
        data = event_to_dict(event)
        json.dumps(data)  # must be JSON-ready
        assert event_from_dict(data) == event

    def test_unknown_event_object_raises(self):
        with pytest.raises(ProtocolError, match="unknown event"):
            event_to_dict(object())

    def test_unknown_event_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown event"):
            event_from_dict({"type": "exploded"})


class TestRemoteDetectionResult:
    def test_from_wire_dict(self):
        result = RemoteDetectionResult(
            {
                "deadlock_found": True,
                "abort_free": True,
                "aborted": [],
                "spared": [3],
                "grants": [
                    {"type": "granted", "tid": 5, "rid": "R1", "mode": "IX"}
                ],
                "repositions": [
                    {"type": "repositioned", "rid": "R2", "delayed": [8]}
                ],
                "resolutions": [{"cycle": [1, 2], "chosen": "TDR-2"}],
                "stats": {"cycles_found": 1},
            }
        )
        assert result.deadlock_found and result.abort_free
        assert result.aborted == [] and result.spared == [3]
        assert result.grants[0].mode is LockMode.IX
        assert result.repositions[0].delayed == (8,)
        assert result.stats["cycles_found"] == 1

    def test_empty_payload(self):
        result = RemoteDetectionResult({})
        assert not result.deadlock_found
        assert result.aborted == []
        assert result.resolutions == []
