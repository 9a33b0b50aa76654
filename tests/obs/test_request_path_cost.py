"""Counted tripwires: what the request path is *not* allowed to do.

Nothing here reads a clock.  Each test counts — registry lookups, JSON
codec objects built, events kept, bytes still allocated — on the paths
a granted lock, a commit and a ``batch`` frame take, so observing a
lock cannot quietly go back to costing more than granting it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import tracemalloc

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.events import EVENT_LOG_CAPACITY
from repro.lockmgr import LockManager
from repro.lockmgr.sharded import ShardedLockCore
from repro.obs.metrics import MetricsRegistry
from repro.service import journal, protocol
from repro.service.admin import log_payload
from repro.service.core import ServiceCore
from repro.service.wire import codec_for

SHARDS = pytest.mark.parametrize("shards", [1, 4])


def transaction(core, session, index, locks=8):
    """begin + ``locks`` granted S locks on fresh-ish rids + commit,
    with the pump the server runs after every step."""
    tid = core.begin_step(session)
    core.pump()
    for k in range(locks):
        rid = "r{}".format((index * locks + k) % 512)
        status, _, _ = core.lock_step(session, tid, rid, LockMode.S)
        assert status == "granted"
        core.pump()
    core.finish_step(session, tid, False)
    core.pump()


def batch_transaction(core, session, tid, locks=8):
    ops = [{"op": "begin", "tid": tid}]
    ops.extend(
        {"op": "lock", "tid": tid, "rid": "b{}".format(k), "mode": "S",
         "trace": "trace-0000"}
        for k in range(locks)
    )
    ops.append({"op": "commit", "tid": tid})
    results = core.batch_step(session, ops)
    assert all(row["ok"] for row in results)
    core.pump()


@pytest.fixture
def lookups(monkeypatch):
    """Counts every by-name instrument lookup on any registry."""
    calls = []
    for kind in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, kind)

        def counted(self, name, *args, _original=original, **kwargs):
            calls.append(name)
            return _original(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, kind, counted)
    return calls


@pytest.fixture
def codecs_built(monkeypatch):
    """Counts every ``json.JSONEncoder``/``JSONDecoder`` constructed
    (``json.dumps``/``loads`` with arguments build one per call)."""
    built = []

    class Encoder(json.JSONEncoder):
        def __init__(self, *args, **kwargs):
            built.append("encoder")
            super().__init__(*args, **kwargs)

    class Decoder(json.JSONDecoder):
        def __init__(self, *args, **kwargs):
            built.append("decoder")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(json, "JSONEncoder", Encoder)
    monkeypatch.setattr(json, "JSONDecoder", Decoder)
    return built


@SHARDS
def test_granted_locks_and_batches_look_nothing_up(shards, lookups):
    core = ServiceCore(shards=shards, policy="periodic")
    session = core.open_session()
    transaction(core, session, 0)  # warm-up: the series get created
    batch_transaction(core, session, 100000)
    assert lookups, "the warm-up must have resolved its series by name"
    del lookups[:]
    for index in range(1, 126):  # 125 x 8 = 1000 lock_steps + finishes
        transaction(core, session, index)
    for tid in range(100001, 100101):  # 100 batch_steps
        batch_transaction(core, session, tid)
    assert lookups == []
    assert core.stats.grants == 8 * 126 + 8 * 101
    value = core.telemetry.registry.get(
        "repro_lock_grants_total", {"path": "immediate"}
    ).value
    assert value == core.stats.grants


def test_a_sampled_wire_frame_looks_nothing_up(lookups):
    """One frame in ``_WIRE_SAMPLE`` feeds the wire series, in and out;
    past a connection's first sampled frame its (codec, direction)
    children are held, so the next one through ``data_received`` and
    its reply look nothing up by name."""
    from repro.service import server as server_module
    from tests.service.raw import Pipe

    sample = server_module._WIRE_SAMPLE

    async def go():
        server = server_module.LockServer(period=None, policy="periodic")
        await server.start("127.0.0.1", 0)
        pipe = await Pipe(server).handshake()
        for k in range(2 * sample):
            if k == sample:  # the first sampled frame is behind us
                assert lookups
                del lookups[:]
            await pipe.call(pipe.client.acquire(1, "r{}".format(k), "X"))
        assert lookups == []
        frames = server.core.telemetry.registry.get(
            "repro_wire_frames_total", {"codec": "json", "direction": "in"}
        )
        assert frames.value == 2 * sample
        pipe.lose()
        await server.aclose()

    asyncio.run(go())


def test_wire_samples_count_frames_not_segments():
    """Pipelined segments of many frames each: the in and out counters
    both read the frames they stand for, to within one sample."""
    from repro.service import server as server_module
    from tests.service.raw import Pipe

    sample = server_module._WIRE_SAMPLE

    async def go():
        server = server_module.LockServer(period=None, policy="periodic")
        await server.start("127.0.0.1", 0)
        pipe = await Pipe(server).handshake()
        beats = iter(range(1000, 2000))
        for _ in range(2):
            pipe.connection.data_received(b"".join(
                protocol.encode_frame(
                    protocol.request(next(beats), "heartbeat")
                )
                for _ in range(2 * sample)
            ))
            await asyncio.sleep(0)
        frames = 1 + 4 * sample  # the hello, then the heartbeats
        registry = server.core.telemetry.registry
        for direction in ("in", "out"):
            counted = registry.get(
                "repro_wire_frames_total",
                {"codec": "json", "direction": direction},
            ).value
            assert abs(counted - frames) < sample, direction
        pipe.lose()
        await server.aclose()

    asyncio.run(go())


@pytest.mark.parametrize("wire", [1, 2])
def test_frames_and_records_build_no_json_codec(wire, codecs_built):
    codec = codec_for(wire)
    lock = protocol.request(7, "lock", tid=3, rid="R1", mode="S", wait=True)
    messages = [
        (lock, None),
        (protocol.ok(7, status="granted", event=None, epoch=0), "lock"),
        # A cold op: whole-message JSON inside the binary framing too.
        (protocol.ok(8, commits=12, policy_info={"name": "p"}), "stats"),
    ]
    for _ in range(50):
        for message, reply_to in messages:
            data = codec.encode(dict(message), reply_to)
            decoded, end = codec.split(bytearray(data), 0, len(data))
            assert end == len(data) and decoded == message
        frame = protocol.encode_frame(lock)
        assert protocol.decode_payload(frame[4:]) == lock
        line = journal.encode_record({"kind": "lock", "tid": 3, "rid": "R1"})
        assert journal.decode_record(line)["tid"] == 3
    assert codecs_built == []


def publish(manager, count):
    """``count`` events: an immediate grant each, transactions of 8."""
    published = 0
    tid = 0
    while published < count:
        tid += 1
        for k in range(8):
            manager.lock(tid, "r{}".format(k), LockMode.S)
            published += 1
        manager.finish(tid)
    return published


@pytest.mark.parametrize(
    "make",
    [
        LockManager,
        lambda: ShardedLockCore(shards=1, policy="periodic"),
        lambda: ShardedLockCore(shards=4, policy="periodic"),
    ],
    ids=["monolithic", "shards1", "shards4"],
)
def test_event_log_is_a_ring_with_a_total(make):
    manager = make()
    published = publish(manager, 10 * EVENT_LOG_CAPACITY)
    assert len(manager.log) == EVENT_LOG_CAPACITY
    payload = log_payload(manager, limit=0)
    assert payload["total"] == published
    assert len(payload["events"]) == EVENT_LOG_CAPACITY
    assert len(log_payload(manager, limit=100)["events"]) == 100
    # The ring holds the *latest* events, oldest first.
    last = log_payload(manager, limit=1)["events"][0]
    assert (last["tid"], last["rid"]) == (published // 8, "r7")


def test_core_memory_is_flat_in_commits_served():
    """Between its 4000th and 12000th commit an in-process core keeps
    no more than it had: every per-event structure is a ring.  (The
    parent kept every event: ~2 MB over these 8000 two-lock commits.)"""
    core = ServiceCore(shards=1, policy="periodic")
    session = core.open_session()
    for index in range(1000):
        transaction(core, session, index, locks=2)
    tracemalloc.start()
    try:
        # By the 4000th commit every ring has been refilled with
        # objects tracemalloc saw being allocated.
        for index in range(1000, 4000):
            transaction(core, session, index, locks=2)
        at_4000, _ = tracemalloc.get_traced_memory()
        for index in range(4000, 12000):
            transaction(core, session, index, locks=2)
        at_12000, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at_12000 - at_4000 < 256 * 1024
    assert len(core.manager.log) <= EVENT_LOG_CAPACITY
    assert core.manager.log.total == 12000 * 2


def test_journaled_core_memory_is_flat_in_commits_served(tmp_path):
    """The same window with a file journal attached: the file is the
    history, so nothing appended is kept.  (The parent kept a dict per
    record: 8.9 MB over these 8000 two-lock batch frames.)"""
    path = str(tmp_path / "journal.jsonl")
    log = journal.SessionJournal(path, fsync="never")
    core = ServiceCore(shards=1, policy="periodic", journal=log)
    session = core.open_session()

    def commits(start, stop):
        for tid in range(start, stop):
            batch_transaction(core, session, tid, locks=2)
            log.flush()  # the server's settle

    commits(1, 1000)
    tracemalloc.start()
    try:
        commits(1000, 4000)
        at_4000, _ = tracemalloc.get_traced_memory()
        commits(4000, 12000)
        at_12000, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at_12000 - at_4000 < 256 * 1024
    assert log._records == [] and log._pending == []
    assert len(log) == core.stats.journal_records == 1 + 11999
    log.close()

    # Recovery's read side: the loaded prefix is handed to the replay
    # and dropped; epoch and length are counters, not scans.
    reopened = journal.SessionJournal(path)
    assert len(reopened._records) == len(reopened) == 12000
    recovered = ServiceCore(shards=1, policy="periodic")
    report = journal.recover_into(recovered, reopened, now=0.0)
    assert report.replayed == 12000 and report.replay_errors == 0
    assert reopened._records == []
    assert (len(reopened), reopened.epoch) == (12001, 1)  # + its boot
    reopened.close()


def test_a_granted_lock_frame_builds_no_closure(monkeypatch):
    """Only a request that blocks pays for its later answer: the frame
    function defines no nested function, and the one ``partial`` that
    carries (connection, request id) is built when — and only when — a
    wait parks."""
    from repro.service import server as server_module
    from tests.service.raw import Pipe

    handler = server_module.LockServer._frame.__code__
    assert handler.co_cellvars == ()
    assert not [c for c in handler.co_consts if hasattr(c, "co_code")]

    built = []

    def counted(*args):
        built.append(args[0].__name__)
        return functools.partial(*args)

    monkeypatch.setattr(server_module, "partial", counted)

    async def go():
        server = server_module.LockServer(period=None, policy="periodic")
        await server.start("127.0.0.1", 0)
        one = await Pipe(server).handshake()
        two = await Pipe(server).handshake()
        for k in range(100):
            await one.call(one.client.acquire(1, "r{}".format(k), "X"))
        assert server.stats.grants == 100 and built == []
        waiter = asyncio.ensure_future(two.client.acquire(2, "r0", "S"))
        await two.to_server()
        assert built == ["_lock_resolved"]
        await one.call(one.client.commit(1))
        await two.to_client()
        assert await waiter is True and built == ["_lock_resolved"]
        one.lose(), two.lose()
        await server.aclose()

    asyncio.run(go())
