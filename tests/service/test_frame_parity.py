"""Every reply the server writes, byte for byte, on both codecs.

Each reply on the request path is held to what
``encode_frame``/``BINARY_CODEC.encode`` make of the ``ok(...)`` or
``error(...)`` body with the restart ``epoch`` appended — for a lock
that is granted, parked then granted, parked then aborted, timed out or
refused with ``wait=False``, and for ``begin``, ``commit``, ``abort``
and ``heartbeat``.  A reply too large to encode answers an ``error``
on a connection that carries on, and frames pipelined behind a
handshake are split with the codec it set.  The field checks are held
to their words: a bad ``tid``, ``rid``, ``mode`` or ``timeout`` is
refused with the same code and message, every mode spelling
``parse_mode`` takes is taken, and a lock frame takes exactly the
values the field helpers take.
"""

import asyncio
import itertools

import pytest

from repro.core.errors import ReproError
from repro.core.modes import LockMode
from repro.service import LockServer
from repro.service.protocol import (
    encode_frame,
    error,
    int_field,
    mode_field,
    ok,
    request,
    rid_field,
    seconds_field,
    split_frame,
)
from repro.service.wire import (
    BINARY_CODEC,
    WIRE_BINARY,
    WIRE_JSON,
    codec_for,
)

from .raw import Pipe

WIRES = pytest.mark.parametrize("wire", ["json", "binary"])

EPOCH = 0


def granted(tid, rid, mode, immediate=True):
    return {"type": "granted", "tid": tid, "rid": rid, "mode": mode,
            "immediate": immediate}


def blocked(tid, rid, mode, conversion=False):
    return {"type": "blocked", "tid": tid, "rid": rid, "mode": mode,
            "conversion": conversion}


class Peer:
    """One hand-driven connection: raw request frames in, the server's
    reply bytes out."""

    ids = itertools.count(100)

    def __init__(self, pipe, wire):
        self.pipe = pipe
        self.codec = codec_for(WIRE_BINARY if wire == "binary" else WIRE_JSON)

    @classmethod
    async def open(cls, server, wire):
        return cls(await Pipe(server, wire=wire).handshake(), wire)

    def send(self, op, **fields):
        request_id = next(self.ids)
        self.pipe.connection.data_received(
            self.codec.encode(request(request_id, op, **fields))
        )
        return request_id

    async def replies(self):
        """What the server wrote to this peer by the end of the turn."""
        await asyncio.sleep(0)
        return b"".join(self.pipe.server_transport.take())

    async def call(self, op, **fields):
        request_id = self.send(op, **fields)
        return request_id, await self.replies()

    def ok(self, request_id, op, **fields):
        """The reply the server wrote before its frame path went flat."""
        return self.codec.encode(
            dict(ok(request_id, **fields), epoch=EPOCH), op
        )

    def error(self, request_id, code, message):
        return self.codec.encode(
            dict(error(request_id, code, message), epoch=EPOCH)
        )

    def decode(self, data):
        message, end = self.codec.split(bytearray(data), 0, len(data))
        assert end == len(data)
        return message


async def started(**options):
    server = LockServer(period=None, policy="periodic", **options)
    await server.start("127.0.0.1", 0)
    return server


def run(coroutine):
    asyncio.run(coroutine)


@WIRES
class TestRepliesAreByteIdentical:
    def test_begin_lock_commit_abort_heartbeat(self, wire):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.call("begin", tid=3)
            assert data == peer.ok(request_id, "begin", tid=3)
            request_id, data = await peer.call("begin")
            assert data == peer.ok(request_id, "begin", tid=1)
            request_id, data = await peer.call(
                "lock", tid=3, rid="R", mode="S", wait=True
            )
            assert data == peer.ok(
                request_id, "lock", status="granted",
                event=granted(3, "R", "S"),
            )
            request_id, data = await peer.call(
                "lock", tid=3, rid="Q", mode="X", timeout=2.0
            )
            assert data == peer.ok(
                request_id, "lock", status="granted",
                event=granted(3, "Q", "X"),
            )
            request_id, data = await peer.call("commit", tid=3)
            assert data == peer.ok(request_id, "commit", tid=3, grants=[])
            request_id, data = await peer.call("abort", tid=1)
            assert data == peer.ok(request_id, "abort", tid=1, grants=[])
            request_id, data = await peer.call("heartbeat")
            remaining = peer.decode(data)["remaining"]
            assert data == peer.ok(
                request_id, "heartbeat", lease=5.0, remaining=remaining
            )
            peer.pipe.lose()
            await server.aclose()

        run(go())

    def test_parked_then_granted_and_a_commit_that_grants(self, wire):
        async def go():
            server = await started()
            holder = await Peer.open(server, wire)
            waiter = await Peer.open(server, wire)
            await holder.call("lock", tid=1, rid="R", mode="X")
            parked, data = await waiter.call("lock", tid=2, rid="R", mode="S")
            assert data == b""
            request_id, data = await holder.call("commit", tid=1)
            assert data == holder.ok(
                request_id, "commit", tid=1,
                grants=[granted(2, "R", "S", immediate=False)],
            )
            assert await waiter.replies() == waiter.ok(
                parked, "lock", status="granted", event=blocked(2, "R", "S"),
            )
            holder.pipe.lose(), waiter.pipe.lose()
            await server.aclose()

        run(go())

    def test_parked_then_aborted(self, wire):
        async def go():
            server = await started()
            holder = await Peer.open(server, wire)
            waiter = await Peer.open(server, wire)
            await holder.call("lock", tid=1, rid="R", mode="S")
            await waiter.call("lock", tid=2, rid="Q", mode="S")
            parked, _ = await waiter.call("lock", tid=2, rid="R", mode="X")
            # The waiter's own abort ends the parked request with it.
            request_id = waiter.send("abort", tid=2)
            assert await waiter.replies() == waiter.ok(
                parked, "lock", status="aborted", event=blocked(2, "R", "X"),
            ) + waiter.ok(request_id, "abort", tid=2, grants=[])
            holder.pipe.lose(), waiter.pipe.lose()
            await server.aclose()

        run(go())

    def test_parked_then_timed_out(self, wire):
        async def go():
            server = await started()
            holder = await Peer.open(server, wire)
            waiter = await Peer.open(server, wire)
            await holder.call("lock", tid=1, rid="R", mode="X")
            parked, data = await waiter.call(
                "lock", tid=2, rid="R", mode="X", timeout=0.01
            )
            assert data == b""
            await asyncio.sleep(0.05)
            assert await waiter.replies() == waiter.ok(
                parked, "lock", status="timeout", event=blocked(2, "R", "X"),
            )
            holder.pipe.lose(), waiter.pipe.lose()
            await server.aclose()

        run(go())

    def test_a_refused_wait(self, wire):
        async def go():
            server = await started()
            holder = await Peer.open(server, wire)
            waiter = await Peer.open(server, wire)
            await holder.call("lock", tid=1, rid="R", mode="S")
            request_id, data = await waiter.call(
                "lock", tid=2, rid="R", mode="X", wait=False
            )
            assert data == waiter.ok(
                request_id, "lock", status="blocked",
                event=blocked(2, "R", "X"),
            )
            holder.pipe.lose(), waiter.pipe.lose()
            await server.aclose()

        run(go())

    def test_errors_unknown_ops_and_goodbye(self, wire):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            await peer.call("lock", tid=1, rid="R", mode="X")
            other = await Peer.open(server, wire)
            request_id, data = await other.call("commit", tid=1)
            assert data == other.error(
                request_id, "not-owner", "transaction 1 belongs to session S1"
            )
            request_id, data = await peer.call("frobnicate")
            assert data == peer.error(
                request_id, "bad-op", "unknown operation 'frobnicate'"
            )
            request_id, data = await peer.call("goodbye")
            assert data == peer.ok(request_id, "goodbye")
            assert peer.pipe.server_transport.closed
            other.pipe.lose()
            await server.aclose()

        run(go())


    def test_a_reply_over_max_frame_answers_an_error(self, wire):
        async def go():
            server = await started(max_frame=4096)
            peer = await Peer.open(server, wire)
            for k in range(200):
                await peer.call("lock", tid=1, rid="R{}".format(k), mode="S")
            request_id, data = await peer.call("dump")
            reply = peer.decode(data)
            assert len(data) < 4096
            size = int(reply["error"]["message"].split()[2])
            assert size > 4096
            assert data == peer.error(
                request_id, "error",
                "frame of {} bytes exceeds the 4096 byte limit".format(size),
            )
            # The connection carries on: the next call is answered.
            request_id, data = await peer.call("commit", tid=1)
            assert data == peer.ok(request_id, "commit", tid=1, grants=[])
            assert not peer.pipe.server_transport.closed
            assert server.stats.protocol_errors == 0
            peer.pipe.lose()
            await server.aclose()

        run(go())


@pytest.mark.parametrize("wire", [WIRE_JSON, WIRE_BINARY])
def test_frames_pipelined_behind_a_handshake_use_its_codec(wire):
    """A hello and the frames behind it in one segment: the hello is
    answered in JSON, the rest split and answered in the codec it set."""
    codec = codec_for(wire)

    async def go():
        server = await started()
        pipe = Pipe(server)
        pipe.connection.data_received(
            encode_frame(request(1, "hello", wire=wire))
            + codec.encode(request(2, "begin", tid=4))
            + codec.encode(request(3, "lock", tid=4, rid="R", mode="X"))
        )
        await asyncio.sleep(0)
        data = bytearray(b"".join(pipe.server_transport.take()))
        hello, end = split_frame(data, 0, len(data))
        assert hello["ok"] and hello.get("wire", WIRE_JSON) == wire
        assert data[end:] == codec.encode(
            dict(ok(2, tid=4), epoch=EPOCH), "begin"
        ) + codec.encode(
            dict(ok(3, status="granted", event=granted(4, "R", "X")),
                 epoch=EPOCH),
            "lock",
        )
        assert server.stats.protocol_errors == 0
        pipe.lose()
        await server.aclose()

    run(go())


#: (field, value) -> the message a refused lock frame answers.
BAD_FIELDS = [
    ("tid", "7", "field 'tid' must be a non-negative integer"),
    ("tid", -1, "field 'tid' must be a non-negative integer"),
    ("tid", True, "field 'tid' must be a non-negative integer"),
    ("tid", None, "field 'tid' must be a non-negative integer"),
    ("tid", 0, "tid must be >= 1"),
    ("rid", 5, "field 'rid' must be a resource id string"),
    ("rid", None, "field 'rid' must be a resource id string"),
    ("mode", "XXL", "field 'mode' must be a lock mode name"),
    ("mode", 7, "field 'mode' must be a lock mode name"),
    ("mode", ["X"], "field 'mode' must be a lock mode name"),
    ("mode", None, "field 'mode' must be a lock mode name"),
    ("timeout", "soon",
     "field 'timeout' must be a non-negative number of seconds"),
    ("timeout", -0.5,
     "field 'timeout' must be a non-negative number of seconds"),
    ("timeout", float("inf"),
     "field 'timeout' must be a non-negative number of seconds"),
    ("timeout", False,
     "field 'timeout' must be a non-negative number of seconds"),
]


@WIRES
class TestLockFieldsAreCheckedAsBefore:
    @pytest.mark.parametrize(
        "field,value,message", BAD_FIELDS,
        ids=["{}-{}".format(f, i) for i, (f, _, _) in enumerate(BAD_FIELDS)],
    )
    def test_a_bad_field_is_refused_in_the_same_words(
        self, wire, field, value, message
    ):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            fields = {"tid": 2, "rid": "R", "mode": "X", "timeout": 1.0}
            fields[field] = value
            request_id, data = await peer.call("lock", **fields)
            assert data == peer.error(request_id, "bad-request", message)
            assert str(server.manager.table).strip() == ""
            assert server.core.waiters == {}
            peer.pipe.lose()
            await server.aclose()

        run(go())

    def test_the_first_bad_field_is_the_one_named(self, wire):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.call(
                "lock", tid="x", rid=5, mode="?", timeout="soon"
            )
            assert data == peer.error(
                request_id, "bad-request",
                "field 'tid' must be a non-negative integer",
            )
            request_id, data = await peer.call(
                "lock", tid=2, rid=5, mode="?", timeout="soon"
            )
            assert data == peer.error(
                request_id, "bad-request",
                "field 'rid' must be a resource id string",
            )
            peer.pipe.lose()
            await server.aclose()

        run(go())

    @pytest.mark.parametrize("spelling,name", [
        ("s", "S"), (" x ", "X"), ("Ix", "IX"), ("SIX", "SIX"), ("is\n", "IS"),
    ])
    def test_every_spelling_parse_mode_takes_is_taken(
        self, wire, spelling, name
    ):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.call(
                "lock", tid=2, rid="R", mode=spelling, timeout=1
            )
            assert data == peer.ok(
                request_id, "lock", status="granted",
                event=granted(2, "R", name),
            )
            peer.pipe.lose()
            await server.aclose()

        run(go())


#: Values a peer may put in a lock frame's fields: every JSON type, the
#: edges of each rule and the spellings around the mode names.
CANDIDATES = [
    None, True, False, 0, 1, 7, -1, 2 ** 70, 0.0, 1.0, 1.5, -0.5,
    float("inf"), float("nan"), "", "R", "7", "s", "X", " x ", "sIx",
    "XXL", "NL", "nl\t", [], ["X"], {}, {"X": 1},
]


@pytest.mark.parametrize("field,helper", [
    ("tid", lambda frame: int_field(frame, "tid")),
    ("rid", rid_field),
    ("mode", mode_field),
    ("timeout", lambda frame: seconds_field(frame, "timeout")),
])
def test_a_lock_frame_takes_what_the_field_helper_takes(field, helper):
    """The helpers are the one definition of each field's rule: a lock
    frame is refused in a helper's words exactly when that helper
    refuses the value, and otherwise runs with what it returns."""

    async def go():
        server = await started()
        peer = await Peer.open(server, "json")
        for tid, value in enumerate(CANDIDATES, start=1):
            fields = {"tid": tid, "rid": "R{}".format(tid), "mode": "S",
                      "timeout": 1.0, field: value}
            try:
                expected = helper(fields)
            except ReproError as exc:
                expected = exc
            request_id, data = await peer.call("lock", **fields)
            reply = peer.decode(data)
            if isinstance(expected, ReproError):
                assert reply["error"] == {
                    "code": expected.code, "message": expected.message,
                }, value
                continue
            # Taken by the field check, refused by the core step.
            if field == "tid" and expected == 0:
                assert reply["error"]["message"] == "tid must be >= 1"
                continue
            if field == "mode" and expected is LockMode.NL:
                assert reply["error"] == {
                    "code": "error",
                    "message": "NL is not a requestable lock mode",
                }
                continue
            assert reply["ok"] and reply["status"] == "granted", value
            event = reply["event"]
            if field == "mode":
                assert event["mode"] == expected.name
            elif field != "timeout":
                assert event[field] == expected
        peer.pipe.lose()
        await server.aclose()

    run(go())
