"""Every reply the server writes, byte for byte, on both codecs.

Each reply on the request path is held to what
``encode_frame``/``BINARY_CODEC.encode`` make of the ``ok(...)`` or
``error(...)`` body with the restart ``epoch`` appended — for a lock
that is granted, parked then granted, parked then aborted, timed out or
refused with ``wait=False``, for ``begin``, ``commit``, ``abort`` and
``heartbeat``, and for a ``batch`` of every sub-op kind whose lock
results are granted, blocked and aborted beside errors in place.  A
reply carries only what a client reads: a lock's ``status``, a
finish's ``tid``.  A reply too large to encode answers an ``error`` on
a connection that carries on, and frames pipelined behind a handshake
are split with the codec it set.  The field checks are held to their
words, on a lock frame and on a batch's lock sub-op alike: a bad
``tid``, ``rid``, ``mode`` or ``timeout`` is refused with the same code
and message, every mode spelling ``parse_mode`` takes is taken, and
each takes exactly the values the field helpers take.
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


def lock_result(status):
    """A batch's lock result."""
    return {"op": "lock", "ok": True, "status": status}


def refused(op, code, message):
    """A batch sub-op's error in place."""
    return {"op": op, "ok": False,
            "error": {"code": code, "message": message}}


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

    async def lock(self, via, **fields):
        """One lock as a ``lock`` frame or as a batch's only sub-op."""
        if via == "frame":
            return await self.call("lock", **fields)
        return await self.call("batch", ops=[dict(op="lock", **fields)])

    def lock_ok(self, via, request_id, status):
        if via == "frame":
            return self.ok(request_id, "lock", status=status)
        return self.ok(request_id, "batch", results=[lock_result(status)])

    def lock_refused(self, via, request_id, code, message):
        if via == "frame":
            return self.error(request_id, code, message)
        return self.ok(
            request_id, "batch", results=[refused("lock", code, message)]
        )

    def lock_reply(self, via, data):
        """The decoded reply to :meth:`lock`, a sub-op's as a frame's."""
        reply = self.decode(data)
        return reply if via == "frame" else reply["results"][0]

    def ok(self, request_id, op, **fields):
        """An ``ok(...)`` body with the epoch appended, encoded as the
        server encodes its reply to ``op``."""
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
            assert data == peer.ok(request_id, "lock", status="granted")
            request_id, data = await peer.call(
                "lock", tid=3, rid="Q", mode="X", timeout=2.0
            )
            assert data == peer.ok(request_id, "lock", status="granted")
            request_id, data = await peer.call("commit", tid=3)
            assert data == peer.ok(request_id, "commit", tid=3)
            request_id, data = await peer.call("abort", tid=1)
            assert data == peer.ok(request_id, "abort", tid=1)
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
            assert data == holder.ok(request_id, "commit", tid=1)
            assert await waiter.replies() == waiter.ok(
                parked, "lock", status="granted"
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
                parked, "lock", status="aborted"
            ) + waiter.ok(request_id, "abort", tid=2)
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
                parked, "lock", status="timeout"
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
            assert data == waiter.ok(request_id, "lock", status="blocked")
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
            assert data == peer.ok(request_id, "commit", tid=1)
            assert not peer.pipe.server_transport.closed
            assert server.stats.protocol_errors == 0
            peer.pipe.lose()
            await server.aclose()

        run(go())


@WIRES
class TestBatchRepliesAreByteIdentical:
    def test_every_sub_op_kind_and_lock_outcome(self, wire):
        async def go():
            server = await started()
            holder = await Peer.open(server, wire)
            peer = await Peer.open(server, wire)
            await holder.call("lock", tid=1, rid="H", mode="X")
            request_id, data = await peer.call("batch", ops=[
                {"op": "begin", "tid": 2},
                {"op": "begin"},
                {"op": "lock", "tid": 2, "rid": "A", "mode": "S"},
                {"op": "lock", "tid": 2, "rid": "A", "mode": "X"},
                {"op": "lock", "tid": 2, "rid": "H", "mode": "S"},
                {"op": "lock", "tid": 3, "rid": "B", "mode": "X"},
                {"op": "lock", "tid": 3, "rid": "A", "mode": "S"},
                {"op": "lock", "tid": 2, "rid": 5, "mode": "X"},
                {"op": "frobnicate"},
                "nope",
                {"op": "commit", "tid": 1},
                {"op": "lock", "tid": 4, "rid": "A", "mode": "NL"},
            ])
            assert data == peer.ok(request_id, "batch", results=[
                {"op": "begin", "ok": True, "tid": 2},
                {"op": "begin", "ok": True, "tid": 3},
                lock_result("granted"),
                lock_result("granted"),  # the S -> X conversion
                lock_result("blocked"),
                lock_result("granted"),
                lock_result("blocked"),
                refused("lock", "bad-request",
                        "field 'rid' must be a resource id string"),
                refused("frobnicate", "bad-op",
                        "operation 'frobnicate' cannot be batched"),
                refused(None, "bad-request", "batch sub-op must be an object"),
                refused("commit", "not-owner",
                        "transaction 1 belongs to session S1"),
                refused("lock", "error", "NL is not a requestable lock mode"),
            ])
            # T1 -> T3 -> T2 -> T1: the pass aborts T1, whose next lock
            # answers aborted.
            await holder.call("lock", tid=1, rid="B", mode="X", wait=False)
            assert peer.decode((await peer.call("detect"))[1])["aborted"] == [1]
            request_id, data = await holder.call("batch", ops=[
                {"op": "lock", "tid": 1, "rid": "Z", "mode": "S"},
                {"op": "abort", "tid": 1},
            ])
            assert data == holder.ok(request_id, "batch", results=[
                lock_result("aborted"),
                {"op": "abort", "ok": True, "tid": 1},
            ])
            request_id, data = await peer.call("batch", ops=[
                {"op": "commit", "tid": 2}, {"op": "abort", "tid": 3},
            ])
            assert data == peer.ok(request_id, "batch", results=[
                {"op": "commit", "ok": True, "tid": 2},
                {"op": "abort", "ok": True, "tid": 3},
            ])
            holder.pipe.lose(), peer.pipe.lose()
            await server.aclose()

        run(go())

    def test_a_refused_batch_answers_an_error(self, wire):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.call("batch", ops=[])
            assert data == peer.error(
                request_id, "bad-request", "batch needs a non-empty list of ops"
            )
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
        ) + codec.encode(dict(ok(3, status="granted"), epoch=EPOCH), "lock")
        assert server.stats.protocol_errors == 0
        pipe.lose()
        await server.aclose()

    run(go())


def test_json_frames_in_a_binary_hellos_segment_are_served():
    """A JSON frame in the same segment as a ``hello`` that asks for
    binary is split before the switch and served, its reply binary; a
    JSON frame in a later segment is refused."""

    async def go():
        server = await started()
        pipe = Pipe(server)
        pipe.connection.data_received(
            encode_frame(request(1, "hello", wire=WIRE_BINARY))
            + encode_frame(request(2, "begin", tid=4))
        )
        await asyncio.sleep(0)
        data = bytearray(b"".join(pipe.server_transport.take()))
        hello, end = split_frame(data, 0, len(data))
        assert hello["wire"] == WIRE_BINARY
        assert data[end:] == BINARY_CODEC.encode(
            dict(ok(2, tid=4), epoch=EPOCH), "begin"
        )
        pipe.connection.data_received(encode_frame(request(3, "begin")))
        await asyncio.sleep(0)
        data = b"".join(pipe.server_transport.take())
        assert data == BINARY_CODEC.encode(dict(error(
            None, "protocol", "bad frame magic b'\\x00\\x00' (expected b'RW')"
        ), epoch=EPOCH))
        assert pipe.server_transport.closed
        assert server.stats.protocol_errors == 1
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


#: A lock is checked alike as a frame and as a batch's sub-op (which
#: has no ``timeout``).
VIA = pytest.mark.parametrize("via", ["frame", "sub-op"])
BAD_LOCKS = [
    pytest.param(
        via, field, value, message,
        id="{}{}-{}".format("" if via == "frame" else "sub-op-", field, i),
    )
    for via in ("frame", "sub-op")
    for i, (field, value, message) in enumerate(BAD_FIELDS)
    if via == "frame" or field != "timeout"
]


@WIRES
class TestLockFieldsAreCheckedAsBefore:
    @pytest.mark.parametrize("via,field,value,message", BAD_LOCKS)
    def test_a_bad_field_is_refused_in_the_same_words(
        self, wire, via, field, value, message
    ):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            fields = {"tid": 2, "rid": "R", "mode": "X"}
            if via == "frame":
                fields["timeout"] = 1.0
            fields[field] = value
            request_id, data = await peer.lock(via, **fields)
            assert data == peer.lock_refused(
                via, request_id, "bad-request", message
            )
            assert str(server.manager.table).strip() == ""
            assert server.core.waiters == {}
            peer.pipe.lose()
            await server.aclose()

        run(go())

    @VIA
    def test_the_first_bad_field_is_the_one_named(self, wire, via):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.lock(
                via, tid="x", rid=5, mode="?", timeout="soon"
            )
            assert data == peer.lock_refused(
                via, request_id, "bad-request",
                "field 'tid' must be a non-negative integer",
            )
            request_id, data = await peer.lock(
                via, tid=2, rid=5, mode="?", timeout="soon"
            )
            assert data == peer.lock_refused(
                via, request_id, "bad-request",
                "field 'rid' must be a resource id string",
            )
            peer.pipe.lose()
            await server.aclose()

        run(go())

    @VIA
    @pytest.mark.parametrize("spelling,name", [
        ("s", "S"), (" x ", "X"), ("Ix", "IX"), ("SIX", "SIX"), ("is\n", "IS"),
    ])
    def test_every_spelling_parse_mode_takes_is_taken(
        self, wire, via, spelling, name
    ):
        async def go():
            server = await started()
            peer = await Peer.open(server, wire)
            request_id, data = await peer.lock(
                via, tid=2, rid="R", mode=spelling
            )
            assert data == peer.lock_ok(via, request_id, "granted")
            assert server.manager.holding(2) == {"R": LockMode[name]}
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


@pytest.mark.parametrize("via,field,helper", [
    ("frame", "tid", lambda frame: int_field(frame, "tid")),
    ("frame", "rid", rid_field),
    ("frame", "mode", mode_field),
    ("frame", "timeout", lambda frame: seconds_field(frame, "timeout")),
    ("sub-op", "tid", lambda frame: int_field(frame, "tid")),
    ("sub-op", "rid", rid_field),
    ("sub-op", "mode", mode_field),
])
def test_a_lock_frame_takes_what_the_field_helper_takes(via, field, helper):
    """The helpers are the one definition of each field's rule: a lock
    frame or sub-op is refused in a helper's words exactly when that
    helper refuses the value, and otherwise runs with what it returns."""

    async def go():
        server = await started()
        peer = await Peer.open(server, "json")
        for tid, value in enumerate(CANDIDATES, start=1):
            fields = {"tid": tid, "rid": "R{}".format(tid), "mode": "S",
                      field: value}
            if via == "frame":
                fields.setdefault("timeout", 1.0)
            try:
                expected = helper(fields)
            except ReproError as exc:
                expected = exc
            request_id, data = await peer.lock(via, **fields)
            reply = peer.lock_reply(via, data)
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
            # The lock the step took is the one the helper read.
            held = {"tid": tid, "rid": fields["rid"], "mode": LockMode.S}
            if field != "timeout":
                held[field] = expected
            assert server.manager.holding(held["tid"])[held["rid"]] is (
                held["mode"]
            ), value
        peer.pipe.lose()
        await server.aclose()

    run(go())
