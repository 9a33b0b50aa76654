"""Malformed request fields answer ``bad-request`` — before the core step.

Regression for a peer-provokable fault: ``lock`` used to coerce
``timeout`` *after* ``lock_step`` had parked the request, so a frame
such as ``{"op": "lock", ..., "timeout": "soon"}`` was answered
``internal`` (with the Python ``repr`` of the ``ValueError``) while the
wait stayed parked and the lock was later granted to a transaction whose
client had been told the request failed.  Every field of every frame is
now validated first; these tests send the raw frames, on both codecs.
The ops and binary opcodes of the retired multi-process cluster take
the unknown-op paths.
"""

import asyncio
import contextlib
import re
import struct

import pytest

from repro.core.modes import LockMode
from repro.service import LockServer
from repro.service.protocol import encode_frame, request
from repro.service.wire import WIRE_BINARY, WIRE_JSON, codec_for

from .raw import RawConnection

#: A Python exception repr, e.g. ``ValueError("could not convert ...")``.
_REPR = re.compile(r"\w+(Error|Exception)\(")

#: (op, fields) frames whose one malformed field must be refused.
MALFORMED = [
    ("lock", {"tid": 2, "rid": "R", "mode": "X", "timeout": "soon"}),
    ("lock", {"tid": 2, "rid": "R", "mode": "X", "timeout": -1}),
    ("lock", {"tid": 2, "rid": "R", "mode": "X", "timeout": float("nan")}),
    ("lock", {"tid": "abc", "rid": "R", "mode": "X"}),
    ("lock", {"tid": 2, "rid": "R", "mode": 7}),
    ("lock", {"tid": 2, "rid": "R", "mode": "XXL"}),
    ("lock", {"tid": 2, "rid": 5, "mode": "X"}),
    ("lock", {"tid": 2, "mode": "X"}),
    ("commit", {"tid": None}),
    ("abort", {"tid": [1]}),
    ("begin", {"tid": "zz"}),
    ("holding", {"tid": "1"}),
    ("log", {"limit": "many"}),
    ("spans", {"limit": 1.5}),
    # A limit is a count (0 = all), never a negative slice.
    ("log", {"limit": -2}),
    ("spans", {"limit": -2}),
    # Transaction ids start at 1: 0 and -1 are the detector's sentinels.
    ("begin", {"tid": 0}),
    ("begin", {"tid": -1}),
    ("lock", {"tid": 0, "rid": "S", "mode": "X"}),
]


@contextlib.asynccontextmanager
async def raw_connection(wire, hello=None):
    """A server plus a hand-driven connection that negotiated ``wire``;
    yields ``(server, call)`` where ``call(op, **fields)`` sends one raw
    frame and returns the decoded reply."""
    server = LockServer(period=None, policy="periodic")
    await server.start("127.0.0.1", 0)
    raw = await RawConnection.open(server.host, server.port)
    try:
        fields = {"wire": wire} if hello is None else hello
        raw.write(encode_frame(request(0, "hello", **fields)))
        reply = await raw.read()
        codec = raw.frames.codec = codec_for(reply.get("wire", WIRE_JSON))
        ids = iter(range(1, 1000))

        async def call(op, **fields):
            raw.write(codec.encode(request(next(ids), op, **fields)))
            return await raw.read()

        call.hello = reply
        yield server, call
    finally:
        raw.close()
        await server.aclose()


def assert_bad_request(reply):
    assert reply["ok"] is False, reply
    assert reply["error"]["code"] == "bad-request", reply
    assert not _REPR.search(reply["error"]["message"]), reply


@pytest.mark.parametrize("wire", [WIRE_JSON, WIRE_BINARY], ids=["json", "binary"])
class TestMalformedFields:
    def test_negotiated_the_codec_under_test(self, wire):
        async def go():
            async with raw_connection(wire) as (server, call):
                assert call.hello.get("wire", WIRE_JSON) == wire
                assert server.stats.binary_connections == (wire == WIRE_BINARY)

        asyncio.run(go())

    @pytest.mark.parametrize(
        "op,fields", MALFORMED,
        ids=["{}-{}".format(op, i) for i, (op, _) in enumerate(MALFORMED)],
    )
    def test_answers_bad_request_and_touches_nothing(self, wire, op, fields):
        async def go():
            async with raw_connection(wire) as (server, call):
                held = await call("lock", tid=1, rid="R", mode="X")
                assert held["status"] == "granted"
                assert_bad_request(await call(op, **fields))
                # Nothing parked, queued or granted behind the refusal.
                assert server.core.waiters == {}
                assert not server.manager.is_blocked(2)
                assert server.manager.holding(1) == {"R": LockMode.X}
                done = await call("commit", tid=1)
                assert done["ok"] and done["grants"] == []
                assert server.manager.holding(2) == {}
                assert str(server.manager.table).strip() == ""

        asyncio.run(go())

    def test_bad_timeout_leaves_no_parked_wait_to_be_granted_later(self, wire):
        """The headline repro, end to end: T1 holds X on R; T2's lock
        carries ``timeout: "soon"``."""

        async def go():
            async with raw_connection(wire) as (server, call):
                await call("lock", tid=1, rid="R", mode="X")
                assert_bad_request(await call(
                    "lock", tid=2, rid="R", mode="X", timeout="soon"
                ))
                assert server.core.waiters == {}
                done = await call("commit", tid=1)
                assert done["grants"] == []  # R was not handed to T2
                ok = await call("lock", tid=3, rid="R", mode="X", timeout=1.0)
                assert ok["status"] == "granted"

        asyncio.run(go())

    def test_a_lock_in_mode_NL_is_refused_and_leaves_nothing_behind(self, wire):
        """``NL`` parses as a mode but is not a request: the scheduler
        refuses it, and what an operator reads back — ``stats``,
        ``dump``, ``spans`` — is what it was (the parent left an open
        ``NL`` span and a shard noted for a transaction without locks)."""

        async def read_back(call):
            payloads = []
            for op in ("stats", "dump", "spans"):
                reply = await call(op)
                del reply["id"]
                reply.get("stats", {}).pop("requests", None)  # frames read
                payloads.append(reply)
            return payloads

        async def go():
            async with raw_connection(wire) as (server, call):
                assert (await call("begin", tid=7))["ok"]
                await call("lock", tid=1, rid="held", mode="S")
                before = await read_back(call)
                reply = await call("lock", tid=7, rid="r", mode="NL")
                assert reply["ok"] is False
                assert reply["error"]["code"] == "error", reply
                assert await read_back(call) == before
                assert server.manager.release_victim(7) == []
                ok = await call("lock", tid=7, rid="r", mode="S")
                assert ok["status"] == "granted"

        asyncio.run(go())

    def test_batch_sub_op_fields_are_validated_the_same_way(self, wire):
        async def go():
            async with raw_connection(wire) as (server, call):
                reply = await call("batch", ops=[
                    {"op": "lock", "tid": "abc", "rid": "R", "mode": "X"},
                    {"op": "lock", "tid": 1, "rid": "R", "mode": 7},
                    {"op": "commit", "tid": None},
                    {"op": "lock", "tid": 1, "rid": "R", "mode": "S"},
                ])
                assert reply["ok"], reply
                for result in reply["results"][:3]:
                    assert result["ok"] is False
                    assert result["error"]["code"] == "bad-request"
                    assert not _REPR.search(result["error"]["message"])
                assert reply["results"][3]["status"] == "granted"

        asyncio.run(go())


def test_hello_with_a_malformed_lease_is_refused():
    async def go():
        async with raw_connection(
            WIRE_JSON, hello={"lease": "forever"}
        ) as (server, call):
            assert_bad_request(call.hello)
            assert server.core.sessions == {}

    asyncio.run(go())


@pytest.mark.parametrize("wire", [WIRE_JSON, WIRE_BINARY], ids=["json", "binary"])
@pytest.mark.parametrize("op,fields", [
    ("snapshot", {}),
    ("resolve", {"plan": {"victims": [{"tid": 1, "rid": "R"}]}}),
])
def test_a_retired_cluster_op_is_an_unknown_op(wire, op, fields):
    """``snapshot`` and ``resolve`` left with the multi-process
    cluster: they answer ``bad-op`` like any unknown op, touch nothing,
    and the session goes on to commit."""

    async def go():
        async with raw_connection(wire) as (server, call):
            held = await call("lock", tid=1, rid="R", mode="X")
            assert held["status"] == "granted"
            reply = await call(op, **fields)
            assert reply["ok"] is False, reply
            assert reply["error"]["code"] == "bad-op", reply
            assert not server.manager.was_aborted(1)
            done = await call("commit", tid=1)
            assert done["ok"], done
            assert server.stats.commits == 1
            assert str(server.manager.table).strip() == ""

    asyncio.run(go())


@pytest.mark.parametrize("opcode", [6, 7])
def test_a_binary_frame_with_a_retired_opcode_is_refused(opcode):
    """Binary opcodes 6 and 7 carried ``snapshot`` / ``resolve``.  They
    stay unassigned, so such a frame takes the unknown-opcode path: a
    ``protocol`` error, then the server closes the connection, since
    the stream cannot be resynchronized past a refused frame."""

    async def go():
        server = LockServer(period=None, policy="periodic")
        await server.start("127.0.0.1", 0)
        raw = await RawConnection.open(server.host, server.port)
        try:
            raw.write(encode_frame(request(0, "hello", wire=WIRE_BINARY)))
            assert (await raw.read())["wire"] == WIRE_BINARY
            raw.frames.codec = codec_for(WIRE_BINARY)
            # magic, version, flags, opcode, reserved, id, payload length
            raw.write(struct.pack(">2sBBBBII", b"RW", 2, 0, opcode, 0, 1, 0))
            reply = await raw.read()
            assert reply["ok"] is False and reply["id"] is None, reply
            assert reply["error"] == {
                "code": "protocol",
                "message": "unknown opcode {}".format(opcode),
            }
            assert await raw.read() is None
            assert server.stats.protocol_errors == 1
        finally:
            raw.close()
            await server.aclose()

    asyncio.run(go())
