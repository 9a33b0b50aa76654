"""The v2 binary wire: negotiation, framing, fast lane, transports.

Covers the satellite edges the codec unit tests cannot: a JSON client
and a binary client sharing one server, unknown-version hellos landing
safely on JSON, oversized/truncated frames answering clean protocol
errors, the UNIX-domain listener, a binary client resuming by token
across a restart (epoch bump over binary frames), and the zero-
serialization embedded facade.
"""

import asyncio
import contextlib
import struct
import time

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import (
    AsyncLockClient,
    EmbeddedLockManager,
    LockServer,
    LoopbackServer,
    ServiceError,
)
from repro.service.protocol import ProtocolError, encode_frame, request
from repro.service.wire import (
    BINARY_CODEC,
    HEADER_SIZE,
    JSON_CODEC,
    MAGIC,
    WIRE_BINARY,
    WIRE_JSON,
    codec_for,
    negotiate,
    resolve_wire,
)

from .raw import RawConnection, frames_in


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    unix = kwargs.pop("unix", None)
    server = LockServer(**kwargs)
    if unix is not None:
        await server.start(unix=unix)
    else:
        await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


@contextlib.asynccontextmanager
async def connected(server, **kwargs):
    if server.unix is not None:
        client = await AsyncLockClient.connect(unix=server.unix, **kwargs)
    else:
        client = await AsyncLockClient.connect(
            server.host, server.port, **kwargs
        )
    try:
        yield client
    finally:
        await client.close()


class TestNegotiation:
    def test_binary_granted_and_used(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server, wire="binary") as client:
                    assert client.wire == WIRE_BINARY
                    tid = await client.begin()
                    assert await client.acquire(tid, "R1", LockMode.X)
                    await client.commit(tid)
                    stats = await client.stats()
                    assert stats["binary_connections"] == 1

        asyncio.run(go())

    def test_json_client_sees_no_wire_field(self):
        """An unmodified v1 client's handshake reply is bit-for-bit
        JSON: no ``wire`` key sneaks in."""

        async def go():
            async with running_server(period=None) as server:
                raw = await RawConnection.open(server.host, server.port)
                raw.write(encode_frame(request(1, "hello")))
                reply = await raw.read()
                assert reply["ok"] is True
                assert "wire" not in reply
                assert reply["server"]["wire"] == WIRE_BINARY
                raw.close()

        asyncio.run(go())

    def test_unknown_version_hello_stays_json(self):
        """``wire: 7`` is a *future* version: the server grants the
        newest dialect it speaks (binary); a non-int request is
        ignored entirely."""
        assert negotiate(7) == WIRE_BINARY
        assert negotiate("7") == WIRE_JSON
        assert negotiate(None) == WIRE_JSON
        assert negotiate(True) == WIRE_JSON  # bools are not versions
        assert negotiate(1) == WIRE_JSON
        assert negotiate(-2) == WIRE_JSON

        async def go():
            async with running_server(period=None) as server:
                # A client asking for v7 still ends up on a working
                # binary connection (server grants 2, client speaks 2).
                async with connected(server, wire=2) as client:
                    assert client.wire == WIRE_BINARY
                    tid = await client.begin()
                    await client.commit(tid)

        asyncio.run(go())

    def test_mixed_json_and_binary_clients_share_a_server(self):
        async def go():
            async with running_server(period=0.05) as server:
                async with connected(server, wire="binary") as b, \
                        connected(server, wire="json") as j:
                    assert b.wire == WIRE_BINARY
                    assert j.wire == WIRE_JSON
                    bt = await b.begin()
                    jt = await j.begin()
                    assert await b.acquire(bt, "A", LockMode.X)
                    assert await j.acquire(jt, "B", LockMode.X)
                    # Deadlock across the two dialects: the periodic
                    # detector picks one victim; both clients observe
                    # a consistent outcome through their own codec.
                    results = await asyncio.gather(
                        b.acquire(bt, "B", LockMode.X, timeout=10),
                        j.acquire(jt, "A", LockMode.X, timeout=10),
                        return_exceptions=True,
                    )
                    aborted = [
                        r
                        for r in results
                        if isinstance(r, TransactionAborted)
                    ]
                    assert len(aborted) == 1
                    assert True in results

        asyncio.run(go())

    def test_resolve_wire_names_and_versions(self):
        assert resolve_wire() == WIRE_JSON
        assert resolve_wire("binary") == WIRE_BINARY
        assert resolve_wire("json") == WIRE_JSON
        assert resolve_wire(2) == WIRE_BINARY
        assert codec_for(WIRE_BINARY) is BINARY_CODEC
        assert codec_for(WIRE_JSON) is JSON_CODEC


class TestFrameGuards:
    def test_oversized_binary_frame_answers_frame_too_large(self):
        async def go():
            async with running_server(period=None) as server:
                server.max_frame = 4096
                async with connected(server, wire="binary") as client:
                    tid = await client.begin()
                    with pytest.raises(ServiceError) as err:
                        await client.acquire(
                            tid, "R" * 8192, LockMode.X
                        )
                    assert err.value.code == "frame-too-large"
                    # The server cannot resync past the unread payload:
                    # the refusal is followed by a close, and the next
                    # call fails fast instead of hanging.
                    with pytest.raises(ConnectionError):
                        await client.acquire(tid, "R1", LockMode.X)
                # A fresh connection works; the server is unharmed.
                async with connected(server, wire="binary") as fresh:
                    tid = await fresh.begin()
                    assert await fresh.acquire(tid, "R1", LockMode.X)

        asyncio.run(go())

    def test_oversized_json_frame_answers_frame_too_large(self):
        async def go():
            async with running_server(period=None) as server:
                server.max_frame = 4096
                async with connected(server) as client:
                    tid = await client.begin()
                    with pytest.raises(ServiceError) as err:
                        await client.acquire(
                            tid, "R" * 8192, LockMode.X
                        )
                    assert err.value.code == "frame-too-large"

        asyncio.run(go())

    def test_oversized_announcement_rejected_before_buffering(self):
        """A length prefix over the cap is refused without reading the
        payload — the guard against unbounded buffering."""

        async def go():
            async with running_server(period=None) as server:
                server.max_frame = 4096
                raw = await RawConnection.open(server.host, server.port)
                raw.write(encode_frame(request(1, "hello")))
                reply = await raw.read()
                assert reply["ok"]
                # Announce a 64 MiB JSON frame, send no payload.
                raw.write(struct.pack(">I", 64 * 1024 * 1024))
                answer = await raw.read()
                assert answer["ok"] is False
                assert answer["error"]["code"] == "frame-too-large"
                # ... and the refusal is followed by a close.
                assert await raw.read() is None
                raw.close()

        asyncio.run(go())

    def test_truncated_binary_header_is_a_clean_close(self):
        """Half a header then EOF: the read returns None (peer gone),
        never a partial parse."""

        async def go():
            async with running_server(period=None) as server:
                raw = await RawConnection.open(server.host, server.port)
                raw.write(MAGIC + b"\x02")  # 3 of 14 header bytes
                raw.close()
                await asyncio.sleep(0.05)
                # Server-side: the connection sweep ran, no crash —
                # prove it by opening a fresh, working connection.
                async with connected(server, wire="binary") as client:
                    tid = await client.begin()
                    await client.commit(tid)

        asyncio.run(go())

    def test_truncated_binary_header_raises_protocol_error(self):
        """EOF *between* frames is a clean close; EOF *inside* a header
        or body is a protocol violation."""
        frame = BINARY_CODEC.encode(
            {"v": 1, "id": 3, "op": "heartbeat"}, None, 8 << 20
        )

        def feed(data):
            return frames_in(data, BINARY_CODEC, eof=True)

        assert feed(b"") == []  # clean EOF: no bytes at all
        assert [m["op"] for m in feed(frame)] == ["heartbeat"]
        with pytest.raises(ProtocolError):
            feed(frame[: HEADER_SIZE - 2])  # truncated header
        with pytest.raises(ProtocolError):
            feed(frame[:-1])  # truncated body


class TestUnixSocket:
    def test_end_to_end_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "lock.sock")

        async def go():
            async with running_server(period=0.05, unix=path) as server:
                assert server.unix == path
                assert server.host is None
                async with connected(server, wire="binary") as client:
                    assert client.wire == WIRE_BINARY
                    tid = await client.begin()
                    assert await client.acquire(tid, "R1", LockMode.X)
                    results = await client.batch(
                        [
                            {
                                "op": "lock",
                                "tid": tid,
                                "rid": "R2",
                                "mode": "S",
                            }
                        ]
                    )
                    assert results[0]["ok"]
                    await client.commit(tid)

        asyncio.run(go())

    def test_loopback_server_binds_unix(self, tmp_path):
        path = str(tmp_path / "loop.sock")
        with LoopbackServer(unix=path, period=None) as server:
            assert server.unix == path
            assert server.port is None

            async def go():
                client = await AsyncLockClient.connect(
                    unix=path, wire="binary", heartbeat=False
                )
                tid = await client.begin()
                assert await client.acquire(tid, "R", LockMode.X)
                await client.commit(tid)
                await client.close()

            asyncio.run(go())


class TestBinaryResumeAcrossRestart:
    def test_binary_client_resumes_by_token_after_epoch_bump(
        self, tmp_path
    ):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, wire="binary", lease=60.0
            )
            assert client.wire == WIRE_BINARY
            sid, token = client.session, client.token
            first_epoch = client.epoch
            tid = await client.begin()
            assert await client.acquire(tid, "R1", LockMode.X)
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()

            async with running_server(
                period=None, journal_path=journal
            ) as reborn:
                resumed = await AsyncLockClient.resume(
                    reborn.host,
                    reborn.port,
                    sid,
                    token,
                    wire="binary",
                )
                try:
                    assert resumed.wire == WIRE_BINARY
                    assert resumed.session == sid
                    assert resumed.resumed_tids == [tid]
                    # The epoch bump arrived over a binary frame.
                    assert resumed.last_epoch == reborn.restart_epoch
                    assert resumed.last_epoch > first_epoch
                    # The journaled lock survived; release it over the
                    # resumed binary connection.
                    async with connected(reborn) as other:
                        t2 = await other.begin()
                        assert not await other.acquire(
                            t2, "R1", LockMode.S, wait=False
                        )
                        await resumed.commit(tid)
                finally:
                    await resumed.close()

        asyncio.run(go())


class TestEmbeddedManager:
    def test_embed_facade_matches_remote_contract(self):
        with LoopbackServer(period=0.05) as server:
            with EmbeddedLockManager(server) as m1, EmbeddedLockManager(
                server
            ) as m2:
                t1, t2 = m1.begin(), m2.begin()
                assert m1.acquire(t1, "A", LockMode.X)
                assert m2.acquire(t2, "B", LockMode.X)
                assert m1.holding(t1) == {"A": LockMode.X}
                res = m1.batch(
                    [
                        {
                            "op": "lock",
                            "tid": t1,
                            "rid": "C",
                            "mode": "S",
                        }
                    ]
                )
                assert res[0]["status"] == "granted"
                # wait=False on a contended lock: immediate False.
                assert (
                    m1.acquire(t1, "B", LockMode.X, wait=False) is False
                )
                stats = m1.stats()
                assert stats["requests"] >= 5
                m2.commit(t2)
                m1.commit(t1)

    def test_embed_deadlock_resolves_across_threads(self):
        import threading

        with LoopbackServer(period=0.05) as server:
            with EmbeddedLockManager(server) as m1, EmbeddedLockManager(
                server
            ) as m2:
                t1, t2 = m1.begin(), m2.begin()
                assert m1.acquire(t1, "A", LockMode.X)
                assert m2.acquire(t2, "B", LockMode.X)
                outcome = {}

                def cross():
                    try:
                        outcome["t1"] = m1.acquire(
                            t1, "B", LockMode.X, timeout=10
                        )
                    except TransactionAborted:
                        outcome["t1"] = "aborted"

                thread = threading.Thread(target=cross)
                thread.start()
                try:
                    outcome["t2"] = m2.acquire(
                        t2, "A", LockMode.X, timeout=10
                    )
                except TransactionAborted:
                    outcome["t2"] = "aborted"
                thread.join(timeout=15)
                assert sorted(
                    str(v) for v in outcome.values()
                ) == ["True", "aborted"]

    def test_run_transaction_commits_in_one_hop(self):
        with LoopbackServer(period=0.05) as server:
            with EmbeddedLockManager(server) as manager:
                assert manager.run_transaction(
                    71, [("A", "S"), ("B", LockMode.IX), ("C", "X")]
                )
                # Strict 2PL: everything released at commit, and the
                # transaction really went through the service core.
                assert manager.holding(71) == {}
                assert manager.stats()["grants"] >= 3

    def test_run_transaction_contended_falls_back_to_waiting(self):
        import threading

        with LoopbackServer(period=0.05) as server:
            with EmbeddedLockManager(server) as m1, EmbeddedLockManager(
                server
            ) as m2:
                t1 = m1.begin()
                assert m1.acquire(t1, "B", LockMode.X)
                done = {}

                def contended():
                    # Blocks at B mid-set, resumes when m1 commits,
                    # then finishes the suffix and commits.
                    done["ok"] = m2.run_transaction(
                        t1 + 1,
                        [("A", "S"), ("B", "S"), ("C", "S")],
                        timeout=10,
                    )

                thread = threading.Thread(target=contended)
                thread.start()
                time.sleep(0.2)
                m1.commit(t1)
                thread.join(timeout=15)
                assert done["ok"] is True
                assert m2.holding(t1 + 1) == {}
