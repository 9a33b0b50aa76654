"""Counted tripwires for the request path: burst → steps → settle.

No sockets and no clocks: an :class:`AsyncLockClient` and a
:class:`ServerConnection` are joined by recording transports
(:class:`tests.service.raw.Pipe`) and every segment is delivered by
hand, so each test *counts* — writes, journal flushes, ``data_received``
calls, timer handles — instead of timing anything.  The settle is once
per loop turn: ``Pipe.to_server`` delivers its segments and then yields
that one turn.
"""

import asyncio

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import LockServer
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal
from repro.service.protocol import ServiceError, encode_frame, request

from .raw import Pipe, frames_in

WIRES = pytest.mark.parametrize("wire", ["json", "binary"])


def run(coroutine):
    return asyncio.run(coroutine)


class RecordingJournal(SessionJournal):
    """A real on-disk journal that also logs each flush to ``events``."""

    def __init__(self, path, events):
        super().__init__(path)
        self.events = events

    def flush(self):
        written = super().flush()
        if written:
            self.events.append(("flush", "journal", written))
        return written

    def unflushed(self):
        return len(self._pending)


async def journaled_server(tmp_path, events):
    journal = RecordingJournal(str(tmp_path / "journal.jsonl"), events)
    server = LockServer(period=None, journal=journal, policy="periodic")
    await server.start("127.0.0.1", 0)
    return server, journal


@WIRES
class TestOneBurstOneCommitOneWrite:
    K = 6

    def test_k_lock_frames_in_one_segment(self, wire, tmp_path):
        """(a) K lock frames of K transactions, ONE segment: one group
        commit, one ``transport.write``, K replies in one client
        ``data_received``."""

        async def go():
            events = []
            server, journal = await journaled_server(tmp_path, events)
            pipe = await Pipe(server, events, wire).handshake()
            client, stats = pipe.client, server.stats
            flushes, records = stats.journal_flushes, stats.journal_records
            fsyncs = journal.fsyncs
            del events[:]

            locks = [
                client.acquire(tid, "R{}".format(tid), LockMode.X)
                for tid in range(1, self.K + 1)
            ]
            granted, sent, received = await pipe.call(*locks)

            assert granted == [True] * self.K
            # The client coalesced its K requests into one write ...
            assert len(sent) == 1
            codec = client._frames.codec
            assert len(frames_in(sent[0], codec)) == self.K
            # ... the server served them as one burst: K records, ONE
            # flush, ONE write ...
            assert stats.journal_records == records + self.K
            assert stats.journal_flushes == flushes + 1
            assert journal.fsyncs == fsyncs + 1
            assert len(received) == 1
            # ... carrying all K replies to one client data_received.
            assert len(frames_in(received[0], codec)) == self.K
            assert [event[:2] for event in events] == [
                ("write", "client"),
                ("flush", "journal"),
                ("write", "server"),
            ]
            await server.aclose()

        run(go())

    def test_bursts_of_two_connections_share_the_settle(self, wire, tmp_path):
        """A parked wait on connection B resolved by a commit arriving
        on connection A: both replies leave in the settle of A's burst,
        behind its one flush."""

        async def go():
            events = []
            server, journal = await journaled_server(tmp_path, events)
            a = await Pipe(server, events, wire).handshake()
            b = await Pipe(server, events, wire).handshake()
            assert (await a.call(a.client.acquire(1, "R", "X")))[0] == [True]
            waiter = asyncio.ensure_future(b.client.acquire(2, "R", "X"))
            await b.to_server()
            assert list(server.core.waiters) == [2]
            flushes = server.stats.journal_flushes
            del events[:]

            await a.call(a.client.commit(1))

            assert server.stats.journal_flushes == flushes + 1
            kinds = [event[:2] for event in events]
            assert kinds[:2] == [("write", "client"), ("flush", "journal")]
            assert sorted(kinds[2:]) == [("write", "server")] * 2
            await b.to_client()
            assert await waiter is True
            await server.aclose()

        run(go())

    def test_two_connections_read_in_one_turn_share_one_commit(
        self, wire, tmp_path
    ):
        """Two connections readable in the same ``select()``: their
        bursts cost ONE flush, ONE fsync and one write each — the group
        commit's unit is the loop turn, not the connection."""

        async def go():
            events = []
            server, journal = await journaled_server(tmp_path, events)
            a = await Pipe(server, events, wire).handshake()
            b = await Pipe(server, events, wire).handshake()
            stats = server.stats
            flushes, records = stats.journal_flushes, stats.journal_records
            fsyncs = journal.fsyncs
            locks = [
                asyncio.ensure_future(pipe.client.acquire(tid, rid, "X"))
                for pipe, tid in ((a, 1), (b, 2))
                for rid in ("P{}".format(tid), "Q{}".format(tid))
            ]
            del events[:]

            for _ in range(4):  # both clients' coalescing flushes
                await asyncio.sleep(0)
            for pipe in (a, b):  # both read in the same loop turn
                (segment,) = pipe.client_transport.take()
                pipe.connection.data_received(segment)
            # Both bursts ran their core steps; nothing left the server.
            assert stats.journal_records == records + 4
            assert journal.unflushed() == 4
            assert [e for e in events if e[1] != "client"] == []
            await asyncio.sleep(0)  # the turn's one settle

            assert stats.journal_flushes == flushes + 1
            assert journal.fsyncs == fsyncs + 1
            assert [e for e in events if e[1] != "client"] == [
                ("flush", "journal", 4),
                ("write", "server", None),
                ("write", "server", None),
            ]
            for pipe in (a, b):
                (segment,) = await pipe.to_client()
                assert len(frames_in(segment, pipe.client._frames.codec)) == 2
            assert await asyncio.gather(*locks) == [True] * 4
            await server.aclose()

        run(go())

    def test_a_batch_frame_is_one_record_and_its_commit_one_more(
        self, wire, tmp_path
    ):
        """``begin`` + 8 locks in one ``batch`` frame append exactly one
        record, the commit one more: +2 per transaction, not +10."""

        async def go():
            events = []
            server, journal = await journaled_server(tmp_path, events)
            pipe = await Pipe(server, events, wire).handshake()
            client, stats = pipe.client, server.stats
            for tid in (1, 2, 3):
                records, flushes = stats.journal_records, stats.journal_flushes
                frame = client.pipeline().begin(tid)
                for k in range(8):
                    frame.lock(tid, "r{}-{}".format(tid, k), "S")
                (results,), _, _ = await pipe.call(frame.submit())
                assert [row["ok"] for row in results] == [True] * 9
                assert stats.journal_records == records + 1
                await pipe.call(client.commit(tid))
                assert stats.journal_records == records + 2
                assert stats.journal_flushes == flushes + 2
            await server.aclose()
            # The file holds what the counters say, one line per record.
            with open(journal.path) as handle:
                kinds = [line.split('"kind":"')[1].split('"')[0]
                         for line in handle]
            assert kinds == ["boot", "open"] + ["batch", "finish"] * 3 + [
                "close"
            ]

        run(go())


@WIRES
class TestNoReplyBeforeItsFlush:
    """(b) With a recording transport and a recording journal: at every
    ``transport.write`` and every close, nothing journaled is still
    unflushed — whatever ends the burst."""

    async def setup(self, tmp_path, wire, **hello):
        events = []
        server, journal = await journaled_server(tmp_path, events)
        pipe = Pipe(server, events, wire, probe=journal.unflushed)
        await pipe.handshake(**hello)
        return server, journal, pipe, events

    def check(self, events, expect_close):
        server_side = [e for e in events if e[1] == "server"]
        assert server_side, events
        assert all(unflushed == 0 for _, _, unflushed in server_side), events
        first_write = events.index(server_side[0])
        assert ("flush", "journal") in [e[:2] for e in events[:first_write]]
        assert (server_side[-1][0] == "close") is expect_close
        if expect_close:  # the replies went out before the close
            assert [e[0] for e in server_side][-2:] == ["write", "close"]

    def test_plain_burst(self, wire, tmp_path):
        async def go():
            server, journal, pipe, events = await self.setup(tmp_path, wire)
            del events[:]
            await pipe.call(pipe.client.acquire(1, "R", "X"))
            self.check(events, expect_close=False)
            await server.aclose()

        run(go())

    def test_burst_ending_in_goodbye(self, wire, tmp_path):
        async def go():
            server, journal, pipe, events = await self.setup(tmp_path, wire)
            del events[:]
            client = pipe.client
            lock = asyncio.ensure_future(client.acquire(1, "R", "X"))
            bye = asyncio.ensure_future(client._call(request(None, "goodbye")))
            sent = await pipe.to_server()
            assert len(sent) == 1  # lock + goodbye, one segment
            # lock record and the session's close record, one flush
            assert [e for e in events if e[0] == "flush"] == [
                ("flush", "journal", 2)
            ]
            self.check(events, expect_close=True)
            await pipe.to_client()
            assert await lock is True and (await bye)["ok"]
            assert server.core.sessions == {}
            await server.aclose()

        run(go())

    def test_lease_expiry(self, wire, tmp_path):
        async def go():
            server, journal, pipe, events = await self.setup(
                tmp_path, wire, lease=1.0
            )
            holder = await Pipe(server, events, wire).handshake(lease=3600.0)
            await holder.call(holder.client.acquire(1, "R", "X"))
            parked = asyncio.ensure_future(pipe.client.acquire(2, "R", "X"))
            await pipe.to_server()
            assert list(server.core.waiters) == [2]
            del events[:]
            core = server.core
            # The reaper's tick, at a time when only the short lease is up.
            server._tick(lambda: core.expire_sessions(core.clock() + 60.0))
            assert server.stats.lease_expiries == 1
            # The parked lock is told "aborted", then the close — both
            # behind the flush of the session's close record.
            self.check(events, expect_close=True)
            await pipe.to_client()
            with pytest.raises(TransactionAborted):
                await parked
            assert pipe.connection.timers == {} and core.waiters == {}
            await server.aclose()

        run(go())

    def test_detector_tick_between_a_burst_and_its_settle(
        self, wire, tmp_path
    ):
        """A timer callback that runs before the burst's deferred settle
        settles everything itself — the burst's replies leave behind the
        flush of the burst's records — and the deferred settle then
        finds nothing: no second flush, no second write."""

        async def go():
            server, journal, pipe, events = await self.setup(tmp_path, wire)
            del events[:]
            lock = asyncio.ensure_future(pipe.client.acquire(1, "R", "X"))
            await pipe.to_server(settle=False)
            assert journal.unflushed() == 1 and events[1:] == []
            server._tick(server.core.detect_step)
            self.check(events, expect_close=False)
            settled = list(events)
            await asyncio.sleep(0)  # the burst's own, now empty, settle
            assert events == settled
            assert [e[:2] for e in events if e[1] != "client"] == [
                ("flush", "journal"),
                ("write", "server"),
            ]
            await pipe.to_client()
            assert await lock is True
            await server.aclose()

        run(go())

    def test_frame_too_large_close(self, wire, tmp_path):
        async def go():
            server, journal, pipe, events = await self.setup(tmp_path, wire)
            del events[:]
            codec = pipe.client._frames.codec
            lock = codec.encode(
                request(7, "lock", tid=1, rid="R", mode="X"), None, 1 << 20
            )
            oversized = codec.encode(
                request(8, "lock", tid=1, rid="R" * 4096, mode="X"),
                None,
                1 << 20,
            )
            pipe.connection.frames.max_frame = 1024
            pipe.connection.data_received(lock + oversized)
            await asyncio.sleep(0)  # the turn's settle
            self.check(events, expect_close=True)
            replies = frames_in(b"".join(pipe.server_transport.take()), codec)
            assert [reply["id"] for reply in replies] == [7, None]
            assert replies[0]["status"] == "granted"
            assert replies[1]["error"]["code"] == "frame-too-large"
            assert server.stats.protocol_errors == 1
            pipe.lose()
            await server.aclose()

        run(go())


class TestFlowControl:
    def test_a_peer_that_never_reads_stops_being_read(self):
        """(c) ``stats`` frames from a peer that never reads: once the
        unread replies pass the high-water mark the server has stopped
        reading that connection, and nothing grows behind it."""

        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)
            pipe = await Pipe(server).handshake()
            transport, connection = pipe.server_transport, pipe.connection
            tasks = len(asyncio.all_tasks())
            burst = b"".join(
                encode_frame(request(n, "stats")) for n in range(8)
            )
            bursts = 0
            while transport.reading and bursts < 1000:
                connection.data_received(burst)  # never transport.take()
                await asyncio.sleep(0)  # one burst, one loop turn
                bursts += 1
            assert not transport.reading and connection.paused
            # Bounded: it took a high-water mark's worth of replies,
            # not one burst more, and no per-frame task is left behind.
            one_burst = transport.buffered() / bursts
            assert transport.buffered() <= transport.high_water + one_burst
            assert connection.outbox == []
            assert len(asyncio.all_tasks()) == tasks
            # The peer finally reads: the server resumes reading it.
            transport.take()
            connection.resume_writing()
            assert transport.reading and not connection.paused
            pipe.lose()
            await server.aclose()

        run(go())

    def test_client_callers_wait_at_the_writable_gate(self):
        async def go():
            server = LockServer(period=None)
            await server.start("127.0.0.1", 0)
            pipe = await Pipe(server).handshake()
            client = pipe.client
            client.pause_writing()
            call = asyncio.ensure_future(client.holding(1))
            assert await pipe.to_server() == []  # nothing was written
            assert not call.done() and client._pending == {}
            client.resume_writing()
            assert len(await pipe.to_server()) == 1
            await pipe.to_client()
            assert await call == {}
            pipe.lose()
            await server.aclose()

        run(go())


class CountingLoop:
    """The client's loop, counting the futures and callbacks it asks
    for."""

    def __init__(self, loop):
        self.loop = loop
        self.futures = self.soons = 0

    def create_future(self):
        self.futures += 1
        return self.loop.create_future()

    def call_soon(self, *args):
        self.soons += 1
        return self.loop.call_soon(*args)


class TestClientCallCost:
    def test_n_calls_in_one_turn_one_future_each_one_write_in_all(self):
        """One coroutine per call: a call asks the loop for one future,
        the turn's first call for the one flush callback, and the N
        frames — byte for byte what ``request()`` renders — leave in one
        ``transport.write``."""

        async def go():
            server = LockServer(period=None, policy="periodic")
            await server.start("127.0.0.1", 0)
            pipe = await Pipe(server).handshake()
            client = pipe.client
            loop = client._loop = CountingLoop(client._loop)
            first_id = client._next_id
            traces = {tid: client.trace_of(tid) for tid in (7, 8)}
            results, sent, _ = await pipe.call(
                client.begin(7),
                client.acquire(7, "R", "S"),
                client.acquire(8, "Q", LockMode.X, timeout=2.0),
                client.commit(7),
            )
            assert results == [7, True, True, None]
            assert loop.futures == 4 and loop.soons == 1
            assert sent == [b"".join(
                encode_frame(request(first_id + n, op, **fields))
                for n, (op, fields) in enumerate([
                    ("begin", {"tid": 7}),
                    ("lock", {"tid": 7, "rid": "R", "mode": "S",
                              "wait": True, "trace": traces[7]}),
                    ("lock", {"tid": 8, "rid": "Q", "mode": "X",
                              "wait": True, "trace": traces[8],
                              "timeout": 2.0}),
                    ("commit", {"tid": 7}),
                ])
            )]
            assert client._pending == {}
            # A suspended call is two frames deep: the public method and
            # the one request coroutine, which awaits the reply future.
            call = asyncio.ensure_future(client.holding(7))
            await asyncio.sleep(0)
            inner = call.get_coro().cr_await
            assert asyncio.iscoroutine(inner)
            assert not asyncio.iscoroutine(inner.cr_await)
            await pipe.call()
            assert await call == {}
            pipe.lose()
            await server.aclose()

        run(go())


@WIRES
class TestParkedWaitTimers:
    def test_timeout_answers_and_leaves_the_request_queued(self, wire):
        """(d) ``call_later`` replaced ``asyncio.wait`` + a task per
        frame: same answers, same queue position, no leftovers."""

        async def go():
            server = LockServer(period=None, policy="periodic")
            await server.start("127.0.0.1", 0)
            one = await Pipe(server, wire=wire).handshake()
            two = await Pipe(server, wire=wire).handshake()
            await one.call(one.client.acquire(1, "R", "X"))

            def queue():
                (resource,) = server.manager.table.resources()
                return [request.tid for request in resource.queue]

            for attempt in (1, 2):
                timed = asyncio.ensure_future(
                    two.client.acquire(2, "R", "S", timeout=0)
                )
                await two.to_server()
                assert list(server.core.waiters) == [2]
                assert list(two.connection.timers) == [2]
                for _ in range(3):  # the zero-delay timer fires
                    await asyncio.sleep(0)
                await two.to_client()
                assert await timed is False
                assert server.stats.wait_timeouts == attempt
                assert server.core.waiters == {}
                assert two.connection.timers == {}
                assert queue() == [2]  # still queued, never duplicated

            # A retried lock resumes the same position and is granted.
            retry = asyncio.ensure_future(two.client.acquire(2, "R", "S"))
            await two.to_server()
            assert list(server.core.waiters) == [2] and queue() == [2]
            await one.call(one.client.commit(1))
            await two.to_client()
            assert await retry is True
            assert server.manager.holding(2) == {"R": LockMode.S}
            one.lose(), two.lose()
            await server.aclose()

        run(go())

    def test_disconnect_leaves_no_timer_and_no_parked_wait(self, wire):
        async def go():
            server = LockServer(period=None, policy="periodic")
            await server.start("127.0.0.1", 0)
            one = await Pipe(server, wire=wire).handshake()
            two = await Pipe(server, wire=wire).handshake()
            await one.call(
                one.client.acquire(1, "R", "X"),
                one.client.acquire(1, "Q", "X"),
            )
            waits = [
                asyncio.ensure_future(
                    two.client.acquire(2, "R", "S", timeout=3600)
                ),
                asyncio.ensure_future(two.client.acquire(3, "Q", "S")),
            ]
            await two.to_server()
            assert sorted(server.core.waiters) == [2, 3]
            (handle,) = two.connection.timers.values()

            two.lose()  # rude disconnect with both waits parked

            assert server.core.waiters == {}
            assert two.connection.timers == {} and handle.cancelled()
            assert server.stats.rude_disconnects == 1
            assert not server.manager.is_blocked(2)
            assert not server.manager.is_blocked(3)
            for wait in waits:
                with pytest.raises(ConnectionError):
                    await wait
            one.lose()
            await server.aclose()

        run(go())


class TestBatchRecordHoldsWhatMutated:
    """The frame's one record lists the sub-ops that touched the table
    — a lock that blocks is in it (it joined a queue), a sub-op that
    errors or a re-sent lock that only resumes a wait is not."""

    def core(self):
        core = ServiceCore(policy="periodic", journal=SessionJournal())
        mine, other = core.open_session(), core.open_session()
        core.begin_step(other, 9)
        core.lock_step(other, 9, "held", LockMode.X)
        return core, mine

    def test_errors_and_blocks_are_journaled_exactly_as_they_mutate(self):
        core, mine = self.core()
        before = len(core.journal)
        results = core.batch_step(mine, [
            {"op": "begin", "tid": 1},
            {"op": "begin", "tid": 1},  # already claimed: nothing new
            {"op": "lock", "tid": 1, "rid": "free", "mode": "S"},
            {"op": "lock", "tid": 1, "rid": "free", "mode": "?"},  # error
            {"op": "lock", "tid": 9, "rid": "free", "mode": "S"},  # not ours
            {"op": "lock", "tid": 1, "rid": "held", "mode": "S"},  # blocks
            {"op": "lock", "tid": 1, "rid": "held", "mode": "S"},  # resumes
            {"op": "stats"},  # cannot be batched
        ])
        assert [row["ok"] for row in results] == [
            True, True, True, False, False, True, True, False,
        ]
        assert [row.get("status") for row in results[5:7]] == ["blocked"] * 2
        assert core.stats.journal_records == len(core.journal) == before + 1
        record = core.journal.records()[-1]
        assert record["kind"] == "batch" and record["sid"] == mine.sid
        assert [list(op[:3]) for op in record["ops"]] == [
            ["begin", 1],
            ["lock", 1, "free"],
            ["lock", 1, "held"],
        ]

    def test_a_frame_that_mutates_nothing_appends_nothing(self):
        core, mine = self.core()
        before = len(core.journal)
        core.batch_step(mine, [
            {"op": "lock", "tid": 9, "rid": "free", "mode": "S"},
            {"op": "commit", "tid": 9},
            {"op": "nonsense"},
        ])
        assert core.stats.journal_records == len(core.journal) == before

    def test_single_op_frames_keep_their_own_records(self):
        core, mine = self.core()
        before = len(core.journal)
        core.begin_step(mine, 1)
        core.lock_step(mine, 1, "free", LockMode.S)
        core.finish_step(mine, 1, False)
        assert core.journal.records()[before:] == [
            {"kind": "begin", "sid": mine.sid, "tid": 1},
            {"kind": "lock", "sid": mine.sid, "tid": 1, "rid": "free",
             "mode": "S", "seq": core.journal.records()[before + 1]["seq"]},
            {"kind": "finish", "sid": mine.sid, "tid": 1, "ab": False},
        ]


class TestTransactionIdsStartAtOne:
    """0 and -1 are the detector walk's sentinels.  A peer that could
    begin or lock under either would deadlock a transaction no pass can
    resolve (every pass after it fails), so ``claim`` refuses them:
    nothing claimed, queued or journaled."""

    def test_begin_lock_and_batch_refuse_a_tid_below_one(self):
        core = ServiceCore(policy="periodic", journal=SessionJournal())
        mine = core.open_session()
        before = len(core.journal)
        for tid in (0, -1):
            with pytest.raises(ServiceError) as caught:
                core.begin_step(mine, tid)
            assert caught.value.code == "bad-request"
            with pytest.raises(ServiceError) as caught:
                core.lock_step(mine, tid, "r1", LockMode.X)
            assert caught.value.code == "bad-request"
        results = core.batch_step(mine, [
            {"op": "begin", "tid": -1},
            {"op": "lock", "tid": 0, "rid": "r1", "mode": "X"},
        ])
        assert [row["error"]["code"] for row in results] == [
            "bad-request", "bad-request",
        ]
        assert core.owners == {} and mine.tids == set()
        assert str(core.manager.table).strip() == ""
        assert len(core.journal) == before
        # The pass still resolves the deadlock of well-formed ids.
        core.lock_step(mine, 1, "r1", LockMode.X)
        core.lock_step(mine, 7, "r2", LockMode.X)
        core.lock_step(mine, 1, "r2", LockMode.X, wait=False)
        core.lock_step(mine, 7, "r1", LockMode.X, wait=False)
        assert len(core.detect_step().aborted) == 1
