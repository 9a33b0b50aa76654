"""The sharded lock manager: router, core surface, merged view, the
cross-shard periodic pass, and the blocking facade.

The centerpiece is the satellite regression: the paper's printed
deadlocks with their two resources placed on *different* shards must be
found in one cross-shard pass and resolved exactly as the monolithic
detector resolves the same state — Example 4.1 abort-free by TDR-2,
Example 5.1 by aborting the walkthrough's victim on every shard it
touched.
"""

import sys
import threading
import time

import pytest

from repro.core.errors import LockTableError, TransactionAborted
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr.events import EVENT_LOG_CAPACITY
from repro.lockmgr.manager import LockManager
from repro.lockmgr.sharded import (
    ShardedLockCore,
    ShardedLockManager,
    resolve_shard_count,
    shard_of,
)

from ..conformance import scenarios


def rids_on_distinct_shards(core: ShardedLockCore, count: int = 2):
    assert core.shard_count >= count
    return scenarios.spread_rids(core, count)


class TestRouter:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for i in range(64):
                rid = "R{}".format(i)
                index = shard_of(rid, shards)
                assert 0 <= index < shards
                assert index == shard_of(rid, shards)

    def test_single_shard_takes_everything(self):
        assert all(shard_of("R{}".format(i), 1) == 0 for i in range(32))

    def test_router_spreads_many_resources(self):
        indexes = {shard_of("R{}".format(i), 4) for i in range(256)}
        assert indexes == {0, 1, 2, 3}

    def test_continuous_forces_single_shard(self):
        assert resolve_shard_count(1, "continuous") == 1
        assert resolve_shard_count(8) == 8
        with pytest.raises(ValueError, match="shards=8"):
            resolve_shard_count(8, "continuous")
        with pytest.raises(ValueError, match="shards=4"):
            ShardedLockCore(shards=4, policy="continuous")


class TestCoreSurface:
    def test_routing_and_affinity(self):
        core = ShardedLockCore(shards=4)
        a, b = rids_on_distinct_shards(core)
        assert core.lock(1, a, LockMode.S).granted
        assert core.lock(1, b, LockMode.X).granted
        assert core.holding(1) == {a: LockMode.S, b: LockMode.X}
        assert core.shard_index(a) != core.shard_index(b)
        core.finish(1)
        assert core.holding(1) == {}
        assert len(core.table) == 0

    def test_first_lock_numbers_do_not_outlive_their_resources(self):
        """The sequence lives in the shard tables and is dropped with
        the entry: a core that has locked a million distinct resources
        remembers only the ones still locked."""
        core = ShardedLockCore(shards=4)
        for index in range(200):
            assert core.lock(1, "t{}".format(index), LockMode.S).granted
        assert core.sequence_of("t7") == 7
        core.finish(1)
        assert core.sequence_of("t7") is None
        assert all(not shard.table._seq for shard in core.shards)
        assert core.lock(2, "t7", LockMode.S).granted
        assert core.sequence_of("t7") == 200

    def test_finish_releases_on_every_touched_shard(self):
        core = ShardedLockCore(shards=4)
        a, b = rids_on_distinct_shards(core)
        assert core.lock(1, a, LockMode.X).granted
        assert core.lock(1, b, LockMode.X).granted
        assert not core.lock(2, a, LockMode.S).granted
        assert not core.lock(3, b, LockMode.S).granted
        grants = core.finish(1)
        assert {event.tid for event in grants} == {2, 3}
        assert core.holding(2) == {a: LockMode.S}
        assert core.holding(3) == {b: LockMode.S}

    def test_cross_shard_double_wait_violates_axiom_1(self):
        core = ShardedLockCore(shards=4)
        a, b = rids_on_distinct_shards(core)
        assert core.lock(1, a, LockMode.X).granted
        assert core.lock(2, b, LockMode.X).granted
        assert not core.lock(3, a, LockMode.S).granted
        with pytest.raises(LockTableError):
            core.lock(3, b, LockMode.S)

    def test_aborted_transaction_cannot_relock(self):
        core = ShardedLockCore(shards=2)
        core._aborted.add(7)
        with pytest.raises(LockTableError):
            core.lock(7, "R1", LockMode.S)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_a_refused_request_leaves_no_trace_of_its_transaction(
        self, shards
    ):
        """``lock`` used to note the shard before the scheduler could
        refuse: a later ``release_victim`` then took the never-locked
        transaction for one it had seen, marked it aborted with nothing
        to free, and no ``finish`` ever cleared the mark."""
        core = ShardedLockCore(shards=shards)
        with pytest.raises(LockTableError):
            core.lock(7, "r", LockMode.NL)
        assert core._affinity == {} and len(core.table) == 0
        assert core.release_victim(7) == []
        assert not core.was_aborted(7)
        assert core.lock(7, "r", LockMode.S).granted
        # The same for a request refused because its sender is blocked.
        assert core.lock(8, "x", LockMode.X).granted
        assert not core.lock(9, "x", LockMode.S).granted
        other = next(
            rid for rid in map("y{}".format, range(64))
            if core.shard_index(rid) != core.shard_index("x") or shards == 1
        )
        with pytest.raises(LockTableError):
            core.lock(9, other, LockMode.S)
        core.finish(9)
        assert core._affinity.get(9) is None and core.holding(9) == {}
        assert core.release_victim(9) == [] and not core.was_aborted(9)

    def test_log_total_is_exact_with_two_shards_publishing_at_once(self):
        """``EventLog.total`` sums per-shard counts, each written under
        its shard's mutex: two threads publishing on two shards lose no
        update (one shared ``total += n`` did, now and then)."""
        core = ShardedLockCore(shards=4)
        a, b = rids_on_distinct_shards(core)
        each, failures = 50_000, []

        def publish(tid, rid):
            try:
                for _ in range(each // 8):
                    for _ in range(8):  # re-requests: one event apiece
                        core.lock(tid, rid, LockMode.S)
                    core.finish(tid)
            except BaseException as exc:  # surfaced below
                failures.append(exc)
                raise

        threads = [
            threading.Thread(target=publish, args=(tid, rid))
            for tid, rid in ((1, a), (2, b))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not failures and not any(t.is_alive() for t in threads)
        assert core.log.total == 2 * each >= 10 ** 5
        assert core.log.counts[core.shard_index(a)] == each
        assert len(core.log) == EVENT_LOG_CAPACITY and len(core.table) == 0

    def test_merged_view_keeps_first_lock_order(self):
        core = ShardedLockCore(shards=4)
        rids = ["R{}".format(i) for i in (9, 2, 14, 5, 1)]
        for tid, rid in enumerate(rids, start=1):
            assert core.lock(tid, rid, LockMode.S).granted
        assert core.table.resource_ids() == rids
        # A monolithic manager fed the same sequence iterates identically.
        mono = LockManager()
        for tid, rid in enumerate(rids, start=1):
            assert mono.lock(tid, rid, LockMode.S).granted
        assert mono.table.resource_ids() == core.table.resource_ids()

    def test_relock_after_drop_moves_to_the_end(self):
        core = ShardedLockCore(shards=4)
        assert core.lock(1, "R1", LockMode.S).granted
        assert core.lock(2, "R2", LockMode.S).granted
        core.finish(1)  # R1 drops out of its shard's table
        assert core.lock(3, "R1", LockMode.S).granted
        assert core.table.resource_ids() == ["R2", "R1"]

    def test_shard_summaries_add_up(self):
        core = ShardedLockCore(shards=4)
        for i in range(12):
            assert core.lock(i + 1, "R{}".format(i), LockMode.S).granted
        assert not core.lock(20, "R0", LockMode.X).granted
        rows = core.shard_summaries()
        assert len(rows) == 4
        assert sum(row["resources"] for row in rows) == 12
        assert sum(row["blocked"] for row in rows) == 1
        assert sum(row["queued"] for row in rows) == 1
        assert all(row["epoch"] > 0 for row in rows)

    def test_single_shard_table_is_the_real_table(self):
        core = ShardedLockCore(shards=1)
        assert core.lock(1, "R1", LockMode.S).granted
        assert core.table is core.shards[0].table


class TestCrossShardDetection:
    """Satellite regression: a cycle spanning two shards is detected in
    a single pass and — when a repositioning is eligible — resolved
    abort-free by TDR-2, exactly like the monolithic detector.  The
    behaviours themselves are the conformance suite's
    (``tests/conformance``, which runs them on ``ShardedLockCore(4)``
    among the other facades); what stays here is the sharding record
    of the pass and the shard counts off that suite's axis."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_example_41_across_shards_is_abort_free(self, shards):
        core = ShardedLockCore(shards=shards, policy="periodic")
        r1, r2 = rids_on_distinct_shards(core)
        result = scenarios.check_example_41_is_abort_free(core, r1, r2)
        info = result.sharding
        assert info is not None and info.shards == shards
        assert info.cross_shard_cycles >= 1
        assert info.stale_victims == 0 and info.stale_repositions == 0

    @pytest.mark.parametrize("example,costs", [
        (scenarios.feed_example_41, None),
        (scenarios.feed_example_51, scenarios.EXAMPLE_51_COSTS),
    ])
    def test_matches_the_monolithic_resolution(self, example, costs):
        def build_costs():
            return CostTable(dict(costs)) if costs else None

        core = ShardedLockCore(
            shards=4, costs=build_costs(), policy="periodic"
        )
        r1, r2 = rids_on_distinct_shards(core)
        scenarios.check_matches_reference(
            core, LockManager(costs=build_costs()), example, r1, r2
        )

    def test_pass_on_a_clean_core_does_nothing(self):
        core = ShardedLockCore(shards=4, policy="periodic")
        a, b = rids_on_distinct_shards(core)
        result = scenarios.check_clean_pass_does_nothing(core, a, b)
        assert result.sharding.cross_shard_cycles == 0


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestFacade:
    def test_blocked_acquire_wakes_on_commit(self):
        with ShardedLockManager(shards=4) as manager:
            assert manager.acquire(1, "R1", LockMode.X)
            granted = []
            thread = threading.Thread(
                target=lambda: granted.append(
                    manager.acquire(2, "R1", LockMode.S)
                )
            )
            thread.start()
            assert wait_until(lambda: manager._core.is_blocked(2))
            manager.commit(1)
            thread.join(timeout=5.0)
            assert granted == [True]
            assert manager.holding(2) == {"R1": LockMode.S}
            manager.commit(2)

    def test_cross_shard_deadlock_victim_raises(self):
        with ShardedLockManager(shards=4) as manager:
            a, b = rids_on_distinct_shards(manager._core)
            assert manager.acquire(1, a, LockMode.X)
            assert manager.acquire(2, b, LockMode.X)
            outcomes = {}

            def worker(tid, rid):
                try:
                    outcomes[tid] = manager.acquire(tid, rid, LockMode.X)
                except TransactionAborted:
                    outcomes[tid] = "aborted"
                    manager.abort(tid)

            threads = [
                threading.Thread(target=worker, args=(1, b)),
                threading.Thread(target=worker, args=(2, a)),
            ]
            for thread in threads:
                thread.start()
            assert wait_until(lambda: manager.deadlocked())
            result = manager.detect()
            assert result.deadlock_found and len(result.aborted) == 1
            for thread in threads:
                thread.join(timeout=5.0)
            assert sorted(outcomes.values(), key=str) == [True, "aborted"]
            survivor = next(
                tid for tid, value in outcomes.items() if value is True
            )
            manager.commit(survivor)

    def test_background_detector_breaks_cross_shard_deadlocks(self):
        with ShardedLockManager(shards=4, period=0.02) as manager:
            a, b = rids_on_distinct_shards(manager._core)
            assert manager.acquire(1, a, LockMode.X)
            assert manager.acquire(2, b, LockMode.X)
            outcomes = {}

            def worker(tid, rid):
                try:
                    outcomes[tid] = manager.acquire(
                        tid, rid, LockMode.X, timeout=5.0
                    )
                except TransactionAborted:
                    outcomes[tid] = "aborted"
                    manager.abort(tid)

            threads = [
                threading.Thread(target=worker, args=(1, b)),
                threading.Thread(target=worker, args=(2, a)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert sorted(outcomes.values(), key=str) == [True, "aborted"]
