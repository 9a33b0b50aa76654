"""End-to-end lock service tests: real sockets, real asyncio server.

Each test spins up a :class:`LockServer` on an ephemeral loopback port
inside one ``asyncio.run`` and drives it purely through the public
:class:`AsyncLockClient` API — the same path external processes use.
"""

import asyncio
import contextlib
import struct
import threading
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
from repro.service.protocol import encode_frame, request

from .raw import RawConnection

#: The scripted request order that reaches the paper's Example 4.1 state
#: (mirrors tests.conftest.build_example_41_by_requests): (tid, rid,
#: mode, granted?).
EXAMPLE_41_REQUESTS = [
    (7, "R2", "IS", True),
    (1, "R1", "IX", True),
    (2, "R1", "IS", True),
    (3, "R1", "IX", True),
    (4, "R1", "IS", True),
    (1, "R1", "S", False),
    (2, "R1", "S", False),
    (5, "R1", "IX", False),
    (6, "R1", "S", False),
    (7, "R1", "IX", False),
    (8, "R2", "X", False),
    (9, "R2", "IX", False),
    (3, "R2", "S", False),
    (4, "R2", "X", False),
]


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    server = LockServer(**kwargs)
    await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


@contextlib.asynccontextmanager
async def connected(server, **kwargs):
    client = await AsyncLockClient.connect(
        server.host, server.port, **kwargs
    )
    try:
        yield client
    finally:
        await client.close()


class TestHandshake:
    def test_hello_reports_session_and_server(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert client.session == "S1"
                    assert client.lease == server.lease
                    # Capability advertisement: the newest wire dialect
                    # the server speaks (the connection stays on v1
                    # JSON unless the client asked).
                    assert client.server_info["wire"] == 2
                    assert client.server_info["period"] is None

        asyncio.run(go())

    def test_first_frame_must_be_hello(self):
        async def go():
            async with running_server(period=None) as server:
                raw = await RawConnection.open(server.host, server.port)
                raw.write(encode_frame(request(1, "stats")))
                response = await raw.read()
                raw.close()
                return response

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["error"]["code"] == "handshake"

    def test_wrong_wire_version_answered_with_protocol_error(self):
        async def go():
            async with running_server(period=None) as server:
                raw = await RawConnection.open(server.host, server.port)
                payload = b'{"v": 99, "id": 1, "op": "hello"}'
                raw.write(struct.pack(">I", len(payload)) + payload)
                response = await raw.read()
                raw.close()
                assert server.stats.protocol_errors == 1
                return response

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["error"]["code"] == "protocol"
        assert "version" in response["error"]["message"]


class TestTransactions:
    def test_begin_assigns_distinct_tids(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        first = await one.begin()
                        second = await two.begin()
                        chosen = await two.begin(tid=40)
                        assert first != second
                        assert chosen == 40

        asyncio.run(go())

    def test_not_owner_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R1", LockMode.S)
                        with pytest.raises(ServiceError) as excinfo:
                            await two.commit(1)
                        assert excinfo.value.code == "not-owner"
                        # the rightful owner can still commit
                        await one.commit(1)

        asyncio.run(go())

    def test_commit_releases_and_grants_waiter(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.X)
                        )
                        await asyncio.sleep(0.05)
                        assert not waiter.done()
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0) is True
                        assert await two.holding(2) == {"R": LockMode.X}

        asyncio.run(go())


class TestDeadlockResolution:
    def test_periodic_detector_resolves_two_client_deadlock(self):
        async def go():
            async with running_server(period=0.05) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R1", LockMode.S)
                        assert await two.acquire(2, "R2", LockMode.S)
                        results = await asyncio.gather(
                            one.acquire(1, "R2", LockMode.X),
                            two.acquire(2, "R1", LockMode.X),
                            return_exceptions=True,
                        )
                        kinds = sorted(type(r).__name__ for r in results)
                        assert kinds == ["TransactionAborted", "bool"]
                        assert server.stats.victims_aborted == 1
                        assert server.stats.deadlocks_resolved == 1
                        assert not await one.deadlocked()

        asyncio.run(go())

    def test_example_41_abort_free_over_the_wire(self):
        """The paper's Example 4.1 driven by two network clients: the
        detection pass repositions R2's queue and aborts nobody."""

        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as odd:
                    async with connected(server) as even:
                        for tid, rid, mode, expect in EXAMPLE_41_REQUESTS:
                            client = odd if tid % 2 else even
                            got = await client.acquire(
                                tid, rid, mode, wait=False
                            )
                            assert got is expect, (tid, rid, mode)
                        assert await odd.deadlocked()
                        result = await odd.detect()
                        assert result.deadlock_found
                        assert result.abort_free
                        assert result.aborted == []
                        assert [
                            e.rid for e in result.repositions
                        ] == ["R2"]
                        assert not await even.deadlocked()
                        stats = await even.stats()
                        assert stats["abort_free_resolutions"] == 1
                        assert stats["victims_aborted"] == 0

        asyncio.run(go())

    def test_continuous_server_resolves_on_block(self):
        async def go():
            async with running_server(
                period=None, policy="continuous"
            ) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R1", LockMode.S)
                    assert await client.acquire(2, "R2", LockMode.S)
                    assert not await client.acquire(
                        1, "R2", LockMode.X, wait=False
                    )
                    # closing the cycle triggers immediate resolution:
                    # the victim is either the requester (raises) or the
                    # other party (frees R1, so the request is granted)
                    try:
                        assert await client.acquire(2, "R1", LockMode.X)
                        victim = 1
                    except TransactionAborted:
                        victim = 2
                    assert server.manager.was_aborted(victim)
                    assert not await client.deadlocked()

        asyncio.run(go())


class TestWaitSemantics:
    def test_timeout_then_reacquire_resumes_same_request(self):
        """A timed-out wait leaves the request queued; retrying resumes
        the same queue position instead of enqueueing a duplicate."""

        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        assert not await two.acquire(
                            2, "R", LockMode.S, timeout=0.05
                        )

                        def queue_of(dump):
                            (resource,) = dump["table"]["resources"]
                            return [
                                entry["tid"] for entry in resource["queue"]
                            ]

                        assert queue_of(await two.dump()) == [2]
                        # a second timed-out wait must not duplicate
                        assert not await two.acquire(
                            2, "R", LockMode.S, timeout=0.05
                        )
                        assert queue_of(await two.dump()) == [2]
                        # the retried wait resumes and gets the grant
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.S)
                        )
                        await asyncio.sleep(0.02)
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0)
                        assert server.stats.wait_timeouts == 2

        asyncio.run(go())

    def test_concurrent_wait_for_same_tid_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        waiter = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.S)
                        )
                        await asyncio.sleep(0.05)
                        with pytest.raises(ServiceError) as excinfo:
                            await two.acquire(2, "R", LockMode.S)
                        assert excinfo.value.code == "already-waiting"
                        await one.commit(1)
                        assert await asyncio.wait_for(waiter, 5.0)

        asyncio.run(go())


class TestLeases:
    def test_lease_expiry_frees_locks_within_one_interval(self):
        """A silent client's transactions are aborted and its locks
        freed within (about) one lease interval."""

        async def go():
            async with running_server(period=None) as server:
                silent = await AsyncLockClient.connect(
                    server.host,
                    server.port,
                    lease=0.3,
                    heartbeat=False,
                )
                async with connected(server) as live:
                    assert await silent.acquire(1, "R", LockMode.X)
                    started = asyncio.get_running_loop().time()
                    granted = await live.acquire(
                        2, "R", LockMode.X, timeout=5.0
                    )
                    waited = asyncio.get_running_loop().time() - started
                    assert granted
                    assert waited < 0.3 * 2 + 0.2
                    assert server.stats.lease_expiries == 1
                    assert 1 not in server.core.owners
                await silent.close()

        asyncio.run(go())

    def test_heartbeats_keep_session_alive(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server, lease=0.2) as client:
                    assert await client.acquire(1, "R", LockMode.X)
                    await asyncio.sleep(0.6)  # > 2 leases, heartbeat on
                    assert await client.holding(1) == {"R": LockMode.X}
                    assert server.stats.lease_expiries == 0

        asyncio.run(go())

    def test_rude_disconnect_frees_locks(self):
        async def go():
            async with running_server(period=None) as server:
                rude = await AsyncLockClient.connect(
                    server.host, server.port
                )
                async with connected(server) as live:
                    assert await rude.acquire(1, "R", LockMode.X)
                    # drop the TCP connection with no goodbye
                    await rude.disconnect()
                    granted = await live.acquire(
                        2, "R", LockMode.X, timeout=5.0
                    )
                    assert granted
                    assert server.stats.rude_disconnects == 1
                    assert 1 not in server.core.owners

        asyncio.run(go())

    def test_clean_goodbye_is_not_rude(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R", LockMode.S)
                await asyncio.sleep(0.05)
                assert server.stats.rude_disconnects == 0
                assert server.stats.sessions_closed == 1
                # goodbye still sweeps the session's transactions
                assert 1 not in server.core.owners

        asyncio.run(go())


class TestIntrospectionOps:
    def test_inspect_graph_and_log(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    assert await client.acquire(1, "R1", LockMode.S)
                    assert not await client.acquire(
                        2, "R1", LockMode.X, wait=False
                    )
                    inspect = await client.inspect()
                    assert inspect["resources"] == 1
                    assert inspect["blocked"] == [2]
                    graph = await client.graph(dot=True)
                    # the H-edge points holder -> waiter: T1 -H-> T2
                    assert {"source": 1, "target": 2, "label": "H"}.items() <= graph["edges"][0].items()
                    assert graph["dot"].startswith("digraph")
                    log = await client.log()
                    assert [e["type"] for e in log["events"]] == [
                        "granted",
                        "blocked",
                    ]

        asyncio.run(go())

    def test_unknown_op_rejected(self):
        async def go():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client._call(request(None, "frobnicate"))
                    assert excinfo.value.code == "bad-op"

        asyncio.run(go())


class TestDeadConnection:
    def test_send_after_idle_eof_fails_fast(self):
        """EOF arriving while *no* request is pending must not leave the
        client looking healthy: the read loop is gone, so a later call
        would park a response future nobody can ever complete.  The
        client remembers the terminal error and fails the send
        immediately instead of hanging until some outer timeout."""

        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, heartbeat=False
            )
            try:
                await server.aclose()  # drops the idle connection
                await asyncio.wait_for(client.wait_closed(), timeout=5.0)
                loop = asyncio.get_event_loop()
                start = loop.time()
                with pytest.raises(ConnectionError):
                    await client.stats()
                assert loop.time() - start < 1.0
            finally:
                await client.close()

        asyncio.run(go())


async def until(condition, timeout=5.0):
    """Poll ``condition()`` (state on the same loop) until it holds."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


class TestFinishedTransactionWithAParkedLock:
    """T1 holds R in X, T2's ``lock R X`` is parked, then T2's own
    session finishes T2.  The parked lock must answer ``aborted`` — it
    used to be told ``granted`` (``finish`` dequeued T2, the pump read
    "not aborted, not blocked") while T1 still held R."""

    def check_table(self, server, grants):
        assert server.stats.grants == grants  # T1's only
        assert server.core.waiters == {}
        assert server.manager.holding(2) == {}
        assert str(server.manager.table).strip() == (
            "R(X): Holder((T1, X, NL)) Queue()"
        )

    @pytest.mark.parametrize("wire", ["json", "binary"])
    @pytest.mark.parametrize("finish", ["abort", "commit"])
    def test_on_the_wire(self, wire, finish):
        async def go():
            async with running_server(period=None, policy="periodic") as server:
                async with connected(server, wire=wire) as one:
                    async with connected(server, wire=wire) as two:
                        assert await one.acquire(1, "R", LockMode.X)
                        parked = asyncio.ensure_future(
                            two.acquire(2, "R", LockMode.X)
                        )
                        await until(lambda: 2 in server.core.waiters)
                        await getattr(two, finish)(2)
                        with pytest.raises(TransactionAborted):
                            await asyncio.wait_for(parked, 5.0)
                        self.check_table(server, grants=1)

        asyncio.run(go())

    def test_on_the_embedded_manager(self):
        with LoopbackServer(period=None, policy="periodic") as loopback:
            server = loopback.server
            with EmbeddedLockManager(loopback) as manager:
                assert manager.acquire(1, "R", LockMode.X)
                outcome = {}

                def blocked():
                    try:
                        outcome["lock"] = manager.acquire(2, "R", LockMode.X)
                    except TransactionAborted:
                        outcome["lock"] = "aborted"

                thread = threading.Thread(target=blocked)
                thread.start()
                deadline = time.monotonic() + 5.0
                while not loopback.submit(lambda: 2 in server.core.waiters):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                manager.abort(2)
                thread.join(timeout=5.0)
                assert outcome == {"lock": "aborted"}
                loopback.submit(lambda: self.check_table(server, grants=1))


class TestBackgroundTasks:
    def test_embedded_sessions_expiry_does_not_kill_the_reaper(self):
        """An idle ``EmbeddedLockManager``'s lease expires; the session
        has no connection to close.  Its handle used to be the string
        ``"embed"``: ``"embed".close()`` raised out of the reaper task,
        which died unretrieved — no session was ever reaped again."""
        with LoopbackServer(period=None, lease=0.2) as loopback:
            core = loopback.server.core
            EmbeddedLockManager(loopback)  # idle from here on

            async def hung_client():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port, lease=0.2, heartbeat=False
                )
                assert await client.acquire(1, "R", LockMode.X)
                await asyncio.wait_for(client.wait_closed(), 5.0)
                return client.session

            time.sleep(0.5)  # the embedded session expires first
            assert loopback.submit(lambda: core.stats.lease_expiries) == 1
            sid = asyncio.run(hung_client())
            sessions, owners = loopback.submit(
                lambda: (set(core.sessions), set(core.owners))
            )
            assert sid not in sessions and 1 not in owners
            assert loopback.submit(lambda: core.stats.lease_expiries) == 2
            assert loopback.submit(lambda: core.stats.tick_failures) == 0

    def test_a_failing_tick_is_counted_and_the_reaper_lives_on(self):
        async def go():
            async with running_server(period=None) as server:
                reap, calls = server.core.expire_sessions, []

                def flaky(now=None):
                    calls.append(now)
                    if len(calls) == 1:
                        raise RuntimeError("boom")
                    return reap(now)

                server.core.expire_sessions = flaky
                silent = await AsyncLockClient.connect(
                    server.host, server.port, lease=0.1, heartbeat=False
                )
                assert await silent.acquire(1, "R", LockMode.X)
                await asyncio.wait_for(silent.wait_closed(), 5.0)
                assert server.stats.tick_failures == 1
                assert server.stats.lease_expiries == 1
                assert 1 not in server.core.owners

        asyncio.run(go())

    def test_aclose_raises_what_a_background_task_died_of(self):
        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)

            def broken():
                raise RuntimeError("reaper bug")

            server.core.next_deadline = broken
            await asyncio.sleep(0.15)  # the reaper's next iteration
            with pytest.raises(RuntimeError, match="reaper bug"):
                await server.aclose()

        asyncio.run(go())

    def test_loopback_close_raises_it_too(self):
        loopback = LoopbackServer(period=None).start()

        def broken():
            raise RuntimeError("reaper bug")

        loopback.submit(
            lambda: setattr(loopback.server.core, "next_deadline", broken)
        )
        time.sleep(0.15)
        with pytest.raises(RuntimeError, match="reaper bug"):
            loopback.close()

    def test_aclose_with_a_connected_idle_client_returns_promptly(self):
        """On 3.12 ``Server.wait_closed()`` waits for open connections:
        ``aclose`` must close them first, not wait for the peers."""

        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, heartbeat=False
            )
            raw = await RawConnection.open(server.host, server.port)
            await until(lambda: len(server._connections) == 2)
            started = asyncio.get_running_loop().time()
            await asyncio.wait_for(server.aclose(), 1.0)
            assert asyncio.get_running_loop().time() - started < 1.0
            await asyncio.wait_for(client.wait_closed(), 1.0)
            assert await raw.read() is None  # pre-handshake peer too
            raw.close()
            await client.close()

        asyncio.run(go())
