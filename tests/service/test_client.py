"""The blocking ``RemoteLockManager`` facade over a loopback server.

These tests exercise the drop-in contract: code written against
:class:`~repro.lockmgr.sharded.ShardedLockManager` must behave
identically when pointed at a :class:`RemoteLockManager`.
"""

import concurrent.futures

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import LoopbackServer, RemoteLockManager


@pytest.fixture
def service():
    with LoopbackServer(period=0.05) as server:
        yield server


@pytest.fixture
def manager(service):
    with RemoteLockManager(service.host, service.port) as remote:
        yield remote


class TestLockingSurface:
    def test_acquire_commit_release(self, service, manager):
        assert manager.acquire(1, "R1", LockMode.X)
        assert manager.holding(1) == {"R1": LockMode.X}
        manager.commit(1)
        assert manager.holding(1) == {}

    def test_blocking_acquire_waits_for_release(self, service, manager):
        with RemoteLockManager(service.host, service.port) as other:
            assert manager.acquire(1, "R", LockMode.X)
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                waiting = pool.submit(other.acquire, 2, "R", LockMode.X)
                assert not waiting.done()
                manager.commit(1)
                assert waiting.result(timeout=10.0) is True
            assert other.holding(2) == {"R": LockMode.X}

    def test_timeout_returns_false_and_stays_queued(
        self, service, manager
    ):
        with RemoteLockManager(service.host, service.port) as other:
            assert manager.acquire(1, "R", LockMode.X)
            assert not other.acquire(2, "R", LockMode.S, timeout=0.05)
            snapshot = "\n".join(other.snapshot())
            assert "Queue((T2, S))" in snapshot
            manager.commit(1)
            assert other.acquire(2, "R", LockMode.S, timeout=5.0)

    def test_deadlock_aborts_exactly_one_victim(self, service, manager):
        """Two remote managers deadlock; the server's periodic detector
        picks one victim, whose blocked acquire raises."""
        with RemoteLockManager(service.host, service.port) as other:
            assert manager.acquire(1, "R1", LockMode.S)
            assert other.acquire(2, "R2", LockMode.S)

            def close_cycle(mgr, tid, rid):
                try:
                    return mgr.acquire(tid, rid, LockMode.X, timeout=10.0)
                except TransactionAborted as exc:
                    return exc

            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                first = pool.submit(close_cycle, manager, 1, "R2")
                second = pool.submit(close_cycle, other, 2, "R1")
                outcomes = {first.result(10.0), second.result(10.0)}
            kinds = sorted(type(o).__name__ for o in outcomes)
            assert kinds == ["TransactionAborted", "bool"]
            assert not manager.deadlocked()

    def test_abort_frees_locks(self, service, manager):
        assert manager.acquire(1, "R1", LockMode.X)
        manager.abort(1)
        assert manager.acquire(2, "R1", LockMode.X)


class TestExtras:
    def test_begin_assigns_tid(self, manager):
        tid = manager.begin()
        assert isinstance(tid, int)
        assert manager.begin() != tid

    def test_snapshot_paper_notation(self, manager):
        assert manager.acquire(1, "R1", LockMode.S)
        assert any(
            line.startswith("R1(S)") for line in manager.snapshot()
        )

    def test_dump_is_versioned(self, manager):
        assert manager.acquire(1, "R1", LockMode.S)
        dump = manager.dump()
        assert dump["table"]["v"] == 1

    def test_stats(self, manager):
        assert manager.acquire(1, "R1", LockMode.S)
        stats = manager.stats()
        assert stats["grants"] >= 1
        assert stats["sessions"] >= 1

    def test_close_is_idempotent_and_frees_locks(self, service):
        remote = RemoteLockManager(service.host, service.port)
        assert remote.acquire(1, "R1", LockMode.X)
        remote.close()
        remote.close()
        with RemoteLockManager(service.host, service.port) as fresh:
            assert fresh.acquire(2, "R1", LockMode.X)

    def test_connect_failure_raises(self):
        with pytest.raises((ConnectionError, OSError)):
            RemoteLockManager("127.0.0.1", 1, connect_timeout=2.0)
