"""Counted tripwires: what the request path is *not* allowed to do.

Nothing here reads a clock.  Each test counts — registry lookups, JSON
codec objects built, events kept, bytes still allocated — on the paths
a granted lock, a commit and a ``batch`` frame take, so observing a
lock cannot quietly go back to costing more than granting it.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.events import EVENT_LOG_CAPACITY
from repro.lockmgr.manager import LockManager
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


def batch_transaction(core, session, tid):
    ops = [{"op": "begin", "tid": tid}]
    ops.extend(
        {"op": "lock", "tid": tid, "rid": "b{}".format(k), "mode": "S",
         "trace": "trace-0000"}
        for k in range(8)
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
