"""The frame splitters, by search (both codecs).

``FrameBuffer`` + ``split_frame``/``split_binary_frame`` are the one
decode loop the server and the client run on every received segment.
Two properties pin them down:

* **Chunking never matters.**  However a concatenation of valid frames
  is cut into segments — byte by byte, mid-header, mid-payload — the
  same frames come out, in order, each with the byte that completes it.
* **A peer's bytes can only be refused, never crash the loop.**
  Truncation, a bad magic or version, an oversized length prefix and
  arbitrary bytes yield ``ProtocolError``/``FrameTooLarge`` and no other
  exception, and the buffer never holds more than one header plus
  ``max_frame`` of an incomplete frame.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import FrameTooLarge, ProtocolError
from repro.service.wire import (
    BINARY_CODEC,
    HEADER_SIZE,
    JSON_CODEC,
    MAGIC,
    WIRE_BINARY,
    FrameBuffer,
)

from .test_wire_equivalence import (
    batch_requests,
    hot_responses,
    lock_requests,
    simple_requests,
)

relaxed = settings(max_examples=120)

CODECS = pytest.mark.parametrize(
    "codec", [JSON_CODEC, BINARY_CODEC], ids=["json", "binary"]
)

#: (reply_to, message) pairs covering every hot shape and the fallback.
messages = st.one_of(
    st.tuples(st.none(), lock_requests),
    st.tuples(st.none(), batch_requests),
    st.tuples(st.none(), simple_requests),
    hot_responses,
)

#: The largest header either codec puts in front of a payload.
HEADER = max(4, HEADER_SIZE)


def cut(data: bytes, points):
    """``data`` as consecutive segments cut at the given offsets."""
    edges = sorted({min(point, len(data)) for point in points})
    return [
        data[start:end]
        for start, end in zip([0] + edges, edges + [len(data)])
        if end > start
    ]


def split(frames: FrameBuffer, segment):
    """One feed: the frames it completed; a refused frame raises."""
    decoded, refused = frames.feed(segment)
    if refused is not None:
        raise refused
    return decoded


def drain(frames: FrameBuffer, segments, max_frame: int):
    """Feed every segment; returns the frames decoded.  After each
    feed the buffer holds at most one incomplete frame."""
    decoded = []
    for segment in segments:
        decoded.extend(split(frames, segment))
        assert len(frames) < HEADER + max_frame
    return decoded


@CODECS
class TestChunkingNeverMatters:
    @relaxed
    @given(
        st.lists(messages, min_size=1, max_size=5),
        st.lists(st.integers(min_value=0, max_value=4000), max_size=12),
    )
    def test_any_cut_yields_the_same_frames(self, codec, batch, points):
        encoded = [
            codec.encode(message, reply_to, 1 << 20)
            for reply_to, message in batch
        ]
        frames = FrameBuffer(1 << 20, codec)
        decoded = drain(frames, cut(b"".join(encoded), points), 1 << 20)
        assert decoded == [m for _, m in batch]
        assert frames.count == len(batch)
        frames.eof()  # nothing left over

    @relaxed
    @given(messages)
    def test_byte_by_byte(self, codec, pair):
        reply_to, message = pair
        frame = codec.encode(message, reply_to, 1 << 20)
        frames = FrameBuffer(1 << 20, codec)
        arrived = [split(frames, frame[i:i + 1]) for i in range(len(frame))]
        # The frame comes out with its last byte, not one byte sooner.
        assert arrived[-1] == [message] and not any(arrived[:-1])

    @relaxed
    @given(messages, st.data())
    def test_truncation_is_a_torn_frame_at_eof(self, codec, pair, data):
        reply_to, message = pair
        frame = codec.encode(message, reply_to, 1 << 20)
        keep = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        frames = FrameBuffer(1 << 20, codec)
        assert split(frames, frame[:keep]) == []
        with pytest.raises(ProtocolError):
            frames.eof()


@CODECS
class TestOnlyProtocolErrorsEscape:
    @settings(max_examples=300)
    @given(
        st.binary(max_size=600),
        st.lists(st.integers(min_value=0, max_value=600), max_size=6),
    )
    def test_arbitrary_bytes(self, codec, blob, points):
        frames = FrameBuffer(256, codec)
        try:
            drain(frames, cut(blob, points), 256)
            frames.eof()
        except ProtocolError:
            pass  # FrameTooLarge included; anything else fails the test

    @settings(max_examples=300)
    @given(messages, st.data())
    def test_one_flipped_byte_in_a_valid_frame(self, codec, pair, data):
        """Structure-aware: start from a frame the decoder accepts and
        damage exactly one byte of it, so the field decoders — not just
        the header checks — see hostile input."""
        reply_to, message = pair
        frame = bytearray(codec.encode(message, reply_to, 1 << 20))
        index = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        frame[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        frames = FrameBuffer(1 << 20, codec)
        try:
            drain(frames, [bytes(frame)], 1 << 20)
            frames.eof()
        except ProtocolError:
            pass

    @relaxed
    @given(st.integers(min_value=257, max_value=2**32 - 1))
    def test_oversized_announcement_is_refused_at_the_header(
        self, codec, length
    ):
        if codec is JSON_CODEC:
            header = struct.pack(">I", length)
        else:
            header = struct.pack(
                ">2sBBBBII", MAGIC, WIRE_BINARY, 0, 0, 0, 0, length
            )
        frames = FrameBuffer(256, codec)
        # One byte short of the announcement: still waiting ...
        assert split(frames, header[:-1]) == []
        # ... and refused the moment it is readable, payload unseen.
        with pytest.raises(FrameTooLarge):
            split(frames, header[-1:])


class TestBinaryHeaderChecks:
    def header(self, magic=MAGIC, version=WIRE_BINARY, length=0):
        return struct.pack(">2sBBBBII", magic, version, 0, 3, 0, 1, length)

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="magic"):
            split(FrameBuffer(codec=BINARY_CODEC), self.header(b"XX"))

    def test_bad_version(self):
        with pytest.raises(ProtocolError, match="version"):
            split(FrameBuffer(codec=BINARY_CODEC), self.header(version=9))

    def test_deep_nesting_is_refused_not_a_recursion_error(self):
        payload = b"\x91" * 5000  # [[[[ ... 5000 deep
        frame = struct.pack(
            ">2sBBBBII", MAGIC, WIRE_BINARY, 0x04, 0, 0, 0, len(payload)
        ) + payload
        with pytest.raises(ProtocolError):
            split(FrameBuffer(codec=BINARY_CODEC), frame)

    def test_json_deep_nesting_is_refused_too(self):
        payload = b"[" * 100000
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            split(FrameBuffer(), frame)
