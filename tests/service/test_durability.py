"""Durable restart of the lock service: journal, crash, recover, resume.

Each test runs a real :class:`LockServer` journaling to a temp file,
kills it with :meth:`LockServer.crash` (the in-process stand-in for
``kill -9``: pending journal bytes are abandoned, no graceful close
records are written), restarts a fresh server over the same file, and
checks the recovery contract end to end: the rebuilt RST/TST is
byte-identical, live leases resume by token, expired leases are reaped,
wrong tokens are rejected, and the restart epoch is stamped on every
reply frame.
"""

import asyncio
import contextlib
import errno
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import repro
from repro.core.modes import LockMode
from repro.core.serialize import table_to_dict
from repro.service import AsyncLockClient, LockServer, ServiceError
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal, encode_record, recover_into

from .raw import Pipe

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def table_dump(server: LockServer) -> str:
    return json.dumps(
        table_to_dict(server.core.manager.table), sort_keys=True
    )


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    server = LockServer(**kwargs)
    await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


class TestCrashRestart:
    def test_restart_rebuilds_table_byte_identically(self, tmp_path):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, lease=60.0
            )
            t1 = await client.begin()
            t2 = await client.begin()
            await client.acquire(t1, "R1", LockMode.X)
            await client.acquire(t2, "R2", LockMode.S)
            await client.acquire(
                t2, "R1", LockMode.S, wait=False
            )  # queued behind t1's X lock
            before = table_dump(server)
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()

            async with running_server(
                period=None, journal_path=journal, policy="periodic"
            ) as reborn:
                assert table_dump(reborn) == before
                assert reborn.recovery is not None
                assert reborn.recovery.replayed > 0
                assert reborn.recovery.leases_honored == 1
                assert reborn.restart_epoch == 2  # boot per start

        asyncio.run(go())

    def test_resume_reattaches_session_and_transactions(self, tmp_path):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, lease=60.0
            )
            sid, token = client.session, client.token
            tid = await client.begin()
            await client.acquire(tid, "R1", LockMode.X)
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()

            async with running_server(
                period=None, journal_path=journal
            ) as reborn:
                resumed = await AsyncLockClient.resume(
                    reborn.host, reborn.port, sid, token
                )
                try:
                    assert resumed.session == sid
                    assert resumed.resumed_tids == [tid]
                    assert resumed.last_epoch == reborn.restart_epoch
                    # The lock survived: a second session queues on it.
                    other = await AsyncLockClient.connect(
                        reborn.host, reborn.port
                    )
                    t2 = await other.begin()
                    granted = await other.acquire(
                        t2, "R1", LockMode.S, wait=False
                    )
                    assert granted is False
                    # ...and commits release it across the restart.
                    await resumed.commit(tid)
                    await other.close()
                finally:
                    await resumed.close()

        asyncio.run(go())

    def test_resume_rejects_bad_token_and_unknown_session(self, tmp_path):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(
                server.host, server.port, lease=60.0
            )
            sid = client.session
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()

            async with running_server(
                period=None, journal_path=journal
            ) as reborn:
                with pytest.raises(ServiceError) as err:
                    await AsyncLockClient.resume(
                        reborn.host, reborn.port, sid, "wrong-token"
                    )
                assert err.value.code == "bad-token"
                with pytest.raises(ServiceError) as err:
                    await AsyncLockClient.resume(
                        reborn.host, reborn.port, "S999", "whatever"
                    )
                assert err.value.code == "unknown-session"

        asyncio.run(go())

    def test_resume_while_attached_is_busy(self):
        async def go():
            async with running_server(
                period=None, journal=SessionJournal()
            ) as server:
                client = await AsyncLockClient.connect(
                    server.host, server.port, lease=60.0
                )
                try:
                    with pytest.raises(ServiceError) as err:
                        await AsyncLockClient.resume(
                            server.host,
                            server.port,
                            client.session,
                            client.token,
                        )
                    assert err.value.code == "session-busy"
                finally:
                    await client.close()

        asyncio.run(go())


class TestLeaseReaping:
    def test_expired_leases_reaped_live_ones_honored(self, tmp_path):
        path = tmp_path / "sessions.jsonl"
        now = time.time()
        records = [
            {
                "kind": "open", "sid": "S1", "token": "dead",
                "lease": 5.0, "expires": now - 30.0,
            },
            {
                "kind": "open", "sid": "S2", "token": "live",
                "lease": 60.0, "expires": now + 600.0,
            },
        ]
        path.write_text(
            "".join(encode_record(r) + "\n" for r in records)
        )

        async def go():
            async with running_server(
                period=None, journal_path=str(path)
            ) as server:
                report = server.recovery
                assert report.leases_reaped == 1
                assert report.leases_honored == 1
                assert report.honored == {"S2": []}
                assert "S1" not in server.core.sessions
                # The reap wrote a close record: a second restart must
                # not resurrect S1.
                with pytest.raises(ServiceError) as err:
                    await AsyncLockClient.resume(
                        server.host, server.port, "S1", "dead"
                    )
                assert err.value.code == "unknown-session"
                resumed = await AsyncLockClient.resume(
                    server.host, server.port, "S2", "live"
                )
                await resumed.close()

        asyncio.run(go())

        async def again():
            async with running_server(
                period=None, journal_path=str(path)
            ) as server:
                assert "S1" not in server.core.sessions

        asyncio.run(again())


class TestEpochStamping:
    def test_every_reply_carries_the_restart_epoch(self, tmp_path):
        journal = str(tmp_path / "sessions.jsonl")

        async def go():
            server = LockServer(period=None, journal_path=journal)
            await server.start("127.0.0.1", 0)
            client = await AsyncLockClient.connect(server.host, server.port)
            assert client.epoch == 1
            await client.stats()
            assert client.last_epoch == 1
            await server.crash()
            with contextlib.suppress(Exception):
                await client.close()
            async with running_server(
                period=None, journal_path=journal
            ) as reborn:
                fresh = await AsyncLockClient.connect(
                    reborn.host, reborn.port
                )
                try:
                    assert fresh.epoch == 2
                finally:
                    await fresh.close()

        asyncio.run(go())

    def test_journal_less_server_reports_epoch_zero(self):
        async def go():
            async with running_server(period=None) as server:
                client = await AsyncLockClient.connect(
                    server.host, server.port
                )
                try:
                    assert client.epoch == 0
                finally:
                    await client.close()

        asyncio.run(go())


class FaultyFile:
    """The journal's real file object until :attr:`armed`; from then on
    the named call fails the way a full or dying disk makes it fail."""

    def __init__(self, real, fault):
        self.real = real
        self.fault = fault
        self.armed = False

    def write(self, data):
        if self.armed and self.fault == "write":
            raise OSError(errno.ENOSPC, "No space left on device")
        if self.armed and self.fault == "short":
            return self.real.write(data[: len(data) * 2 // 3])
        return self.real.write(data)

    def fileno(self):
        if self.armed and self.fault == "fsync":
            raise OSError(errno.EIO, "fsync failed")
        return self.real.fileno()

    def __getattr__(self, name):  # flush, truncate, close
        return getattr(self.real, name)


@pytest.mark.parametrize("fsync", ["batch", "always"])
@pytest.mark.parametrize("fault", ["write", "fsync", "short"])
class TestFailStop:
    """A flush the disk refuses stops the server: no reply byte after
    it on any connection, the listener closed, the error surfaced, and
    the file left as the durable prefix — the table at the last
    successful flush.  (Under ``always`` the flush fails inside the
    core step; the settle still meets the same error.)"""

    def test_failed_flush_answers_nobody_and_keeps_the_prefix(
        self, fault, fsync, tmp_path
    ):
        path = str(tmp_path / "sessions.jsonl")

        async def go():
            journal = SessionJournal(path, fsync=fsync)
            disk = journal._file = FaultyFile(journal._file, fault)
            server = LockServer(
                period=None, journal=journal, policy="periodic"
            )
            await server.start("127.0.0.1", 0)
            serving = asyncio.ensure_future(server.serve_forever())
            events = []
            a = await Pipe(server, events).handshake(lease=600.0)
            b = await Pipe(server, events).handshake(lease=600.0)
            await a.call(a.client.acquire(1, "R1", "X"))
            await b.call(b.client.acquire(2, "R2", "S"))
            durable = table_dump(server)
            flushes = server.stats.journal_flushes

            disk.armed = True
            del events[:]
            calls = [
                asyncio.ensure_future(a.client.acquire(1, "R3", "X")),
                asyncio.ensure_future(b.client.commit(2)),
            ]
            for _ in range(4):
                await asyncio.sleep(0)
            for pipe in (a, b):  # both bursts, one loop turn
                (segment,) = pipe.client_transport.take()
                pipe.connection.data_received(segment)
            assert table_dump(server) != durable  # the steps did run
            await asyncio.sleep(0)  # the settle whose flush fails

            assert isinstance(server.failed, OSError)
            assert journal.failed is server.failed
            assert server.stats.journal_flushes == flushes
            assert not server._server.is_serving()
            # Aborted, nothing written first — and nothing afterwards,
            # whatever still runs: asyncio's connection_lost, a tick.
            server_side = [e[:2] for e in events if e[1] == "server"]
            assert server_side == [("close", "server")] * 2
            a.lose(), b.lose()
            server._tick(server.core.detect_step)
            server._tick(server.core.expire_sessions)
            assert [e[:2] for e in events if e[1] == "server"] == server_side
            assert a.server_transport.take() == []
            assert b.server_transport.take() == []
            for call in calls:
                with pytest.raises(ConnectionError):
                    await call
            with pytest.raises(OSError) as surfaced:
                await serving
            assert surfaced.value is server.failed
            with pytest.raises(OSError):
                await server.aclose()
            return durable

        durable = asyncio.run(go())
        reread = SessionJournal(path)
        assert reread.corrupt_tail == 0  # cut back, not merely torn
        replica = ServiceCore(policy="periodic")
        report = recover_into(replica, reread)
        reread.close()
        assert report.replay_errors == 0
        recovered = json.dumps(
            table_to_dict(replica.manager.table), sort_keys=True
        )
        assert recovered == durable


def test_repro_serve_exits_nonzero_when_the_disk_fills(tmp_path):
    """The whole fail-stop on the real surface: ``repro serve`` under a
    16 KB file-size limit (the portable stand-in for a full disk), a
    client committing batched transactions until the journal hits it."""
    journal = tmp_path / "sessions.jsonl"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--period", "0", "--journal", str(journal)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_FSIZE, (16384, 16384)
        ),
    ) as server:
        try:
            banner = server.stdout.readline()
            port = int(banner.split("listening on 127.0.0.1:")[1].split()[0])

            async def commit_until_dropped():
                client = await AsyncLockClient.connect("127.0.0.1", port)
                for tid in range(1, 2000):
                    frame = [{"op": "begin", "tid": tid}] + [
                        {"op": "lock", "tid": tid,
                         "rid": "r{}-{}".format(tid, k), "mode": "S"}
                        for k in range(8)
                    ]
                    try:
                        await client.batch(frame)
                        await client.commit(tid)
                    except ConnectionError:
                        return tid
                return None

            dropped_at = asyncio.run(commit_until_dropped())
            assert dropped_at is not None, "the server never stopped"
            assert server.wait(timeout=30) != 0
            assert "File too large" in server.stderr.read()
        finally:
            server.kill()  # no-op once it has exited
    # What is on disk is whole records, every one acknowledged-or-not
    # but none torn: the journal cut itself back to its last flush.
    reread = SessionJournal.from_text(journal.read_text())
    assert reread.corrupt_tail == 0 and len(reread) > 2 * (dropped_at - 2)


#: What the parent of the flat batch path journaled for the scenario
#: below, line for line: two sessions, T1's unbatched begin and S lock
#: on B, T2's batch frame (begin, a granted S on A, its conversion to X,
#: an X on B that blocks behind T1) as ONE record, then T2's commit.
PINNED_JOURNAL = [
    'ef5c5eee {"expires":1005.0,"kind":"open","lease":5.0,"sid":"S1",'
    '"token":"t1"}',
    'c4d25445 {"expires":1005.0,"kind":"open","lease":5.0,"sid":"S2",'
    '"token":"t2"}',
    '4129ab89 {"kind":"begin","sid":"S1","tid":1}',
    '69b58b89 {"kind":"lock","mode":"S","rid":"B","seq":0,"sid":"S1",'
    '"tid":1}',
    '3306229e {"kind":"batch","ops":[["begin",2],["lock",2,"A","S",1],'
    '["lock",2,"A","X",1],["lock",2,"B","X",0]],"sid":"S2"}',
    'a83b98cb {"ab":false,"kind":"finish","sid":"S2","tid":2}',
]


def test_a_batch_transaction_journals_the_pinned_lines(tmp_path):
    def core_at(wall):
        return ServiceCore(
            clock=lambda: 0.0, wall=lambda: wall,
            token_source=iter(["t1", "t2"]).__next__,
        )

    def dump(core):
        return json.dumps(table_to_dict(core.manager.table), sort_keys=True)

    path = str(tmp_path / "sessions.jsonl")
    core = core_at(1000.0)
    core.journal = SessionJournal(path, fsync="never")
    holder, session = core.open_session(), core.open_session()
    core.begin_step(holder, 1)
    assert core.lock_step(holder, 1, "B", LockMode.S)[0] == "granted"
    results = core.batch_step(session, [
        {"op": "begin", "tid": 2},
        {"op": "lock", "tid": 2, "rid": "A", "mode": "S"},
        {"op": "lock", "tid": 2, "rid": "A", "mode": "X"},
        {"op": "lock", "tid": 2, "rid": "B", "mode": "X"},
    ])
    assert [result.get("status") for result in results] == [
        None, "granted", "granted", "blocked",
    ]
    dumps = [dump(core)]
    core.finish_step(session, 2, False)
    dumps.append(dump(core))
    core.journal.flush()
    core.journal.close()
    with open(path, encoding="utf-8") as handle:
        assert handle.read().splitlines() == PINNED_JOURNAL
    # The parent's lines recover to what the live core held, at the
    # batch frame and after the commit.
    for lines, expected in zip((PINNED_JOURNAL[:-1], PINNED_JOURNAL), dumps):
        written = tmp_path / "parent-{}.jsonl".format(len(lines))
        written.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reborn = core_at(1001.0)
        report = recover_into(reborn, SessionJournal(str(written), "never"))
        assert (report.replay_errors, report.corrupt_tail) == (0, 0)
        assert dump(reborn) == expected
