"""The ``BlockingLockManager`` conformance suite: one set of behaviours,
every thread-facing facade.

Axis: :class:`~repro.lockmgr.ShardedLockManager` (1 and 4 shards),
:class:`~repro.service.RemoteLockManager` over a loopback server on
both wire codecs, and :class:`~repro.service.EmbeddedLockManager`.
Code written against the contract — ``txn``, the examples — may rely
on exactly this:
``acquire`` blocks until granted, answers False on timeout *and leaves
the request queued*, raises ``TransactionAborted`` for a deadlock
victim; ``commit``/``abort`` release under strict 2PL; ``detect`` runs
one pass now.

Every facade is built without a background detector and on the
periodic policy, so a staged deadlock sits until the test calls
``detect()``.

Adding a facade: give it the contract's methods, add one entry to
``FACADES``.
"""

import contextlib
import threading
import time

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.lockmgr import (
    BlockingLockManager,
    LockCore,
    ShardedLockManager,
)
from repro.service import (
    EmbeddedLockManager,
    LoopbackServer,
    RemoteLockManager,
)


@contextlib.contextmanager
def _remote(wire):
    with LoopbackServer(period=None) as server:
        with RemoteLockManager(server.host, server.port, wire=wire) as manager:
            yield manager


@contextlib.contextmanager
def _embedded():
    with LoopbackServer(period=None) as server:
        with EmbeddedLockManager(server) as manager:
            yield manager


#: id -> zero-argument context manager yielding a ready facade.
FACADES = {
    # One shard: the facade's public ``ConcurrentLockManager`` name.
    "concurrent": ShardedLockManager,
    "sharded-4": lambda: ShardedLockManager(shards=4),
    "remote-json": lambda: _remote("json"),
    "remote-binary": lambda: _remote("binary"),
    "embedded": _embedded,
}


@pytest.fixture(params=sorted(FACADES))
def manager(request):
    with FACADES[request.param]() as facade:
        yield facade


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def in_thread(manager, tid, rid, mode, timeout):
    """``manager.acquire`` on a thread; returns (thread, outcome box).
    The box ends up holding the return value, or ``"aborted"`` — a
    victim aborts itself, as the transaction layer would (strict 2PL:
    its locks go with it)."""
    box = []

    def body():
        try:
            box.append(manager.acquire(tid, rid, mode, timeout=timeout))
        except TransactionAborted:
            box.append("aborted")
            manager.abort(tid)

    thread = threading.Thread(target=body)
    thread.start()
    return thread, box


def test_satisfies_the_declared_contract(manager):
    assert isinstance(manager, BlockingLockManager)
    assert not isinstance(manager, LockCore)


def test_acquire_commit_release(manager):
    assert manager.acquire(1, "R1", LockMode.X) is True
    assert manager.holding(1) == {"R1": LockMode.X}
    manager.commit(1)
    assert manager.holding(1) == {}
    assert not manager.deadlocked()


def test_blocked_acquire_wakes_on_commit(manager):
    assert manager.acquire(1, "R", LockMode.X)
    thread, box = in_thread(manager, 2, "R", LockMode.S, 10.0)
    time.sleep(0.1)
    assert box == []  # still parked behind T1
    manager.commit(1)
    thread.join(timeout=10.0)
    assert box == [True]
    assert manager.holding(2) == {"R": LockMode.S}
    manager.commit(2)


def test_timeout_leaves_the_request_queued(manager):
    assert manager.acquire(1, "R", LockMode.X)
    assert manager.acquire(2, "R", LockMode.S, timeout=0.05) is False
    assert manager.acquire(3, "R", LockMode.X, timeout=0.05) is False
    assert manager.holding(2) == {} and manager.holding(3) == {}
    manager.commit(1)
    # T2 kept its place ahead of T3: the release granted it while nobody
    # was waiting, the retry observes that at once, and T3's X stays
    # queued behind it (a dropped request would have let T3 in first).
    assert manager.acquire(2, "R", LockMode.S, timeout=5.0) is True
    assert manager.holding(2) == {"R": LockMode.S}
    assert manager.holding(3) == {}
    manager.commit(2)
    assert manager.acquire(3, "R", LockMode.X, timeout=5.0) is True
    manager.commit(3)


def test_abort_frees_locks_and_queued_requests(manager):
    assert manager.acquire(1, "R", LockMode.X)
    assert manager.acquire(2, "R", LockMode.X, timeout=0.05) is False
    manager.abort(2)  # gives up the queued request
    manager.abort(1)
    assert manager.acquire(3, "R", LockMode.X, timeout=5.0) is True
    manager.commit(3)


def test_deadlock_aborts_exactly_one_victim(manager):
    assert manager.acquire(1, "A", LockMode.X)
    assert manager.acquire(2, "B", LockMode.X)
    first, box1 = in_thread(manager, 1, "B", LockMode.X, 20.0)
    second, box2 = in_thread(manager, 2, "A", LockMode.X, 20.0)
    assert wait_until(manager.deadlocked)
    result = manager.detect()
    assert result.deadlock_found and len(result.aborted) == 1
    (victim,) = result.aborted
    first.join(timeout=20.0)
    second.join(timeout=20.0)
    assert sorted(box1 + box2, key=str) == [True, "aborted"]
    survivor = 3 - victim
    assert (box1 if victim == 1 else box2) == ["aborted"]
    assert manager.holding(survivor) == {"A": LockMode.X, "B": LockMode.X}
    assert not manager.deadlocked()
    manager.commit(survivor)
