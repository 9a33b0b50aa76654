"""The nowait/ordered lane: rule unit tests and deadlock-freedom."""

import random

from repro.core.hw_twbg import build_graph
from repro.core.modes import LockMode
from repro.lockmgr import LockManager
from repro.lockmgr.sharded import ShardedLockCore
from repro.policy import ABORT_REASON, wait_is_ordered


class TestOrderedRule:
    def test_queue_wait_in_order(self):
        assert wait_is_ordered(["R1"], "R2", conversion=False)
        assert wait_is_ordered([], "R1", conversion=False)
        assert wait_is_ordered(["A", "B"], "C", conversion=False)

    def test_queue_wait_out_of_order(self):
        assert not wait_is_ordered(["R3"], "R2", conversion=False)
        assert not wait_is_ordered(["R1", "R9"], "R5", conversion=False)

    def test_conversion_at_maximum_holding(self):
        assert wait_is_ordered(
            ["R1", "R2"], "R2", conversion=True, blocked_converters=1
        )
        assert wait_is_ordered(["R2"], "R2", conversion=True)

    def test_conversion_below_maximum_refused(self):
        assert not wait_is_ordered(
            ["R2", "R3"], "R2", conversion=True, blocked_converters=1
        )

    def test_second_blocked_converter_refused(self):
        assert not wait_is_ordered(
            ["R1", "R2"], "R2", conversion=True, blocked_converters=2
        )


class TestNoWaitManager:
    def test_ordered_wait_queues(self):
        manager = LockManager(policy="nowait")
        assert manager.lock(1, "R1", LockMode.X).granted
        assert not manager.lock(2, "R1", LockMode.X).granted
        assert manager.is_blocked(2)
        assert not manager.was_aborted(2)

    def test_out_of_order_wait_aborts_requester(self):
        manager = LockManager(policy="nowait")
        assert manager.lock(1, "R2", LockMode.X).granted
        assert manager.lock(2, "R1", LockMode.X).granted
        # T2 holds R1 < R2: allowed to queue at R2.
        assert not manager.lock(2, "R2", LockMode.X).granted
        assert manager.is_blocked(2)
        # T1 holds R2 > R1: the wait at R1 could close a cycle.
        assert not manager.lock(1, "R1", LockMode.X).granted
        assert manager.was_aborted(1)
        detection = manager.last_detection
        assert detection.aborted == [1]
        assert detection.abort_reason == ABORT_REASON
        # The abort freed R2, so T2's queued wait was granted.
        assert not manager.is_blocked(2)
        assert not manager.deadlocked()

    def test_policy_counts_aborts(self):
        manager = LockManager(policy="nowait")
        manager.lock(1, "R2", LockMode.X)
        manager.lock(2, "R1", LockMode.X)
        manager.lock(1, "R1", LockMode.X)
        assert manager.policy.aborts == 1
        assert manager.policy.describe() == {
            "name": "nowait", "nowait_aborts": 1,
        }

    def test_no_detector_wanted(self):
        manager = LockManager(policy="nowait")
        assert not manager.policy.wants_periodic
        assert manager.policy.deadlock_free

    def test_sharded_abort_is_cross_shard(self):
        core = ShardedLockCore(shards=4, policy="nowait")
        assert core.lock(1, "R2", LockMode.X).granted
        assert core.lock(2, "R1", LockMode.X).granted
        assert not core.lock(1, "R1", LockMode.X).granted
        assert core.was_aborted(1)
        # Strict 2PL: the facade-level finish frees the other shards.
        core.finish(1)
        assert core.holding(1) == {}
        assert core.lock(2, "R2", LockMode.X).granted


class TestDeadlockFreedom:
    """Property: no schedule over the nowait lane ever builds a wait
    cycle — the graph stays acyclic after every single request."""

    def test_random_workloads_never_deadlock(self):
        rng = random.Random(1234)
        rids = ["R{}".format(i) for i in range(1, 7)]
        modes = [LockMode.S, LockMode.X, LockMode.IS, LockMode.IX]
        for round_index in range(30):
            manager = LockManager(policy="nowait")
            live = set(range(1, 6))
            aborts = 0
            for _ in range(60):
                if not live:
                    break
                tid = rng.choice(sorted(live))
                if manager.was_aborted(tid) or manager.is_blocked(tid):
                    manager.finish(tid)
                    live.discard(tid)
                elif rng.random() < 0.15:
                    manager.finish(tid)
                    live.discard(tid)
                else:
                    manager.lock(
                        tid, rng.choice(rids), rng.choice(modes)
                    )
                    if manager.was_aborted(tid):
                        aborts += 1
                graph = build_graph(manager.table.snapshot())
                assert not graph.has_cycle(), (
                    "cycle under nowait (round {})".format(round_index)
                )
            # A pass over whatever is left must find nothing.
            result = manager.detect()
            assert not result.deadlock_found
            assert not result.aborted
