"""The thread-safe blocking facade."""

import threading
import time

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr import ConcurrentLockManager


class TestBasicBlocking:
    def test_immediate_grant(self):
        with ConcurrentLockManager() as clm:
            assert clm.acquire(1, "R", LockMode.S)
            assert clm.holding(1) == {"R": LockMode.S}
            clm.commit(1)

    def test_waiter_woken_by_commit(self):
        clm = ConcurrentLockManager()
        acquired = threading.Event()
        clm.acquire(1, "R", LockMode.X)

        def waiter():
            assert clm.acquire(2, "R", LockMode.S, timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        clm.commit(1)
        thread.join(timeout=5.0)
        assert acquired.is_set()
        clm.commit(2)
        clm.close()

    def test_timeout_returns_false(self):
        with ConcurrentLockManager() as clm:
            clm.acquire(1, "R", LockMode.X)
            assert not clm.acquire(2, "R", LockMode.S, timeout=0.05)
            clm.commit(1)

    def test_reacquire_after_timeout_resumes_wait(self):
        """A timed-out acquire leaves the request queued; calling
        acquire again resumes waiting instead of erroring."""
        clm = ConcurrentLockManager()
        clm.acquire(1, "R", LockMode.X)
        assert not clm.acquire(2, "R", LockMode.S, timeout=0.05)
        done = threading.Event()

        def retry():
            assert clm.acquire(2, "R", LockMode.S, timeout=5.0)
            done.set()

        thread = threading.Thread(target=retry)
        thread.start()
        time.sleep(0.05)
        clm.commit(1)
        thread.join(timeout=5.0)
        assert done.is_set()
        clm.commit(2)
        clm.close()

    def test_reacquire_after_timeout_does_not_duplicate_request(self):
        """Retrying a timed-out acquire resumes the *same* queued
        request: the resource queue must never grow a second entry for
        the transaction."""
        with ConcurrentLockManager() as clm:
            clm.acquire(1, "R", LockMode.X)
            for _ in range(3):
                assert not clm.acquire(2, "R", LockMode.S, timeout=0.02)
                assert [
                    q.tid
                    for q in clm._core.table.existing("R").queue
                ] == [2]
            clm.commit(1)
            assert clm.acquire(2, "R", LockMode.S, timeout=5.0)
            clm.commit(2)

    def test_timed_out_request_can_be_abandoned(self):
        with ConcurrentLockManager() as clm:
            clm.acquire(1, "R", LockMode.X)
            assert not clm.acquire(2, "R", LockMode.S, timeout=0.05)
            clm.abort(2)  # gives up the queued request
            assert [
                q.tid
                for q in clm._core.table.existing("R").queue
            ] == []
            clm.commit(1)

    def test_reacquire_after_abort_rejected(self):
        with ConcurrentLockManager(policy="continuous") as clm:
            clm.acquire(1, "A", LockMode.X)
            clm.acquire(2, "B", LockMode.X)
            victim = self._force_deadlock(clm)
            with pytest.raises(TransactionAborted):
                clm.acquire(victim, "C", LockMode.S)

    @staticmethod
    def _force_deadlock(clm):
        """Close a 2-cycle from two threads; returns the victim tid."""
        outcome = {}

        def try_lock(tid, rid):
            try:
                outcome[tid] = clm.acquire(tid, rid, LockMode.X, timeout=5.0)
            except TransactionAborted:
                outcome[tid] = "aborted"

        first = threading.Thread(target=try_lock, args=(1, "B"))
        first.start()
        time.sleep(0.05)
        second = threading.Thread(target=try_lock, args=(2, "A"))
        second.start()
        first.join(timeout=5.0)
        second.join(timeout=5.0)
        return 1 if outcome.get(1) == "aborted" else 2


class TestContinuousDetection:
    def test_deadlock_resolved_inline(self):
        with ConcurrentLockManager(
            policy="continuous", costs=CostTable({1: 5.0, 2: 1.0})
        ) as clm:
            clm.acquire(1, "A", LockMode.X)
            clm.acquire(2, "B", LockMode.X)
            results = {}

            def t1():
                try:
                    results[1] = clm.acquire(1, "B", LockMode.X, timeout=5.0)
                except TransactionAborted:
                    results[1] = "aborted"

            def t2():
                try:
                    results[2] = clm.acquire(2, "A", LockMode.X, timeout=5.0)
                except TransactionAborted:
                    results[2] = "aborted"

            first = threading.Thread(target=t1)
            first.start()
            time.sleep(0.05)
            second = threading.Thread(target=t2)
            second.start()
            first.join(5.0)
            second.join(5.0)
            # T2 was the cheaper victim; T1 proceeded.
            assert results[2] == "aborted"
            assert results[1] is True
            assert not clm.deadlocked()


class TestBackgroundDetector:
    def test_periodic_thread_breaks_deadlock(self):
        with ConcurrentLockManager(period=0.05) as clm:
            clm.acquire(1, "A", LockMode.X)
            clm.acquire(2, "B", LockMode.X)
            results = {}

            def run(tid, rid):
                try:
                    results[tid] = clm.acquire(tid, rid, LockMode.X, timeout=5.0)
                except TransactionAborted:
                    results[tid] = "aborted"

            threads = [
                threading.Thread(target=run, args=(1, "B")),
                threading.Thread(target=run, args=(2, "A")),
            ]
            threads[0].start()
            time.sleep(0.02)
            threads[1].start()
            for thread in threads:
                thread.join(timeout=5.0)
            assert sorted(map(str, results.values())) == ["True", "aborted"]

    def test_manual_detect(self):
        with ConcurrentLockManager() as clm:
            clm.acquire(1, "A", LockMode.X)
            result = clm.detect()
            assert not result.deadlock_found


class TestTimeoutWakeupRace:
    """Deterministic regressions for the wait/timeout races, via the
    injected ``wait_fn``: the competing action runs inline during the
    wait (the mutex is already held, the inner manager is plain code)
    and the wait then *reports a timeout anyway* — exactly what
    ``Condition.wait`` is allowed to do when a notify races the timer.
    The facade must trust the lock table, not the wait result."""

    def test_grant_beating_timeout_is_reported_as_grant(self):
        box = {}

        def racing_wait(condition, timeout):
            box["clm"]._core.finish(1)  # the holder's racing commit
            return False  # ...but the timeout signal fires regardless

        clm = ConcurrentLockManager(wait_fn=racing_wait)
        box["clm"] = clm
        clm.acquire(1, "R", LockMode.X)
        # Before the fix this returned False while the table showed T2
        # holding R — a silent lock leak.
        assert clm.acquire(2, "R", LockMode.X, timeout=0.01) is True
        assert clm.holding(2) == {"R": LockMode.X}
        clm.commit(2)
        clm.close()

    def test_abort_beating_timeout_raises(self):
        box = {}

        def racing_wait(condition, timeout):
            box["clm"]._core.detect()  # the periodic pass fires now
            return False

        clm = ConcurrentLockManager(
            costs=CostTable({1: 5.0, 2: 1.0}), wait_fn=racing_wait
        )
        box["clm"] = clm
        clm.acquire(1, "A", LockMode.X)
        clm.acquire(2, "B", LockMode.X)
        # T1's blocking request, issued as its parked thread would have.
        assert not clm._core.lock(1, "B", LockMode.X).granted
        # T2 closes the cycle; the pass aborts it (cheaper victim) in
        # the same instant its wait times out.  Must raise, not return.
        with pytest.raises(TransactionAborted):
            clm.acquire(2, "A", LockMode.X, timeout=0.01)
        clm.abort(2)
        clm.commit(1)
        clm.close()

    def test_genuine_timeout_still_times_out(self):
        clm = ConcurrentLockManager(wait_fn=lambda c, t: False)
        clm.acquire(1, "R", LockMode.X)
        assert clm.acquire(2, "R", LockMode.S, timeout=0.01) is False
        assert clm.holding(2) == {}
        clm.abort(2)
        clm.commit(1)
        clm.close()


class TestStress:
    def test_many_threads_transfer_storm(self):
        """8 worker threads doing conflicting two-lock transactions with
        a fast background detector: everyone eventually finishes (commit
        or abort), nothing deadlocks forever."""
        clm = ConcurrentLockManager(period=0.02)
        resources = ["R{}".format(i) for i in range(4)]
        finished = []
        lock = threading.Lock()

        def worker(tid):
            import random

            rng = random.Random(tid)
            for attempt in range(8):
                txn = tid * 100 + attempt
                first, second = rng.sample(resources, 2)
                try:
                    if not clm.acquire(txn, first, LockMode.X, timeout=2.0):
                        clm.abort(txn)
                        continue
                    time.sleep(0.001)
                    if not clm.acquire(txn, second, LockMode.X, timeout=2.0):
                        clm.abort(txn)
                        continue
                    clm.commit(txn)
                    with lock:
                        finished.append(txn)
                except TransactionAborted:
                    clm.abort(txn)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(1, 9)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        clm.close()
        assert all(not thread.is_alive() for thread in threads)
        assert len(finished) >= 8  # plenty of commits despite conflicts
        assert not clm.deadlocked()
