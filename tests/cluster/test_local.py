"""The in-process cluster: routing, the merged snapshot, and the
coordinator pass against the paper's printed deadlocks.

The centerpiece mirrors the sharded satellite regression one level up:
Examples 4.1 and 5.1 with their two resources owned by *different
worker cores* must resolve exactly as the single-process sharded
detector resolves the same state — 4.1 abort-free by TDR-2, 5.1 by
aborting the walkthrough's victim on every worker it touched — with
the plans and replies round-tripping through JSON on the way.
"""

import pytest

from repro.cluster import LocalCluster, merge_snapshots
from repro.cluster.local import LocalTransport
from repro.core.errors import LockTableError
from repro.core.modes import LockMode
from repro.core.victim import CostTable
from repro.lockmgr.sharded import ShardedLockCore

from ..conformance import scenarios


def rids_on_distinct_workers(cluster: LocalCluster, count: int = 2):
    assert cluster.workers >= count
    return scenarios.spread_rids(cluster, count)


class TestRoutingSurface:
    def test_lock_routes_to_the_owning_core(self):
        cluster = LocalCluster(workers=4)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.S).granted
        assert cluster.lock(1, b, LockMode.X).granted
        assert cluster.holding(1) == {a: LockMode.S, b: LockMode.X}
        assert cluster.worker_index(a) != cluster.worker_index(b)
        assert a in cluster.core_for(a).table.resource_ids()
        assert a not in cluster.core_for(b).table.resource_ids()

    def test_finish_releases_on_every_touched_worker(self):
        cluster = LocalCluster(workers=4)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.X).granted
        assert cluster.lock(1, b, LockMode.X).granted
        assert not cluster.lock(2, a, LockMode.S).granted
        assert not cluster.lock(3, b, LockMode.S).granted
        grants = cluster.finish(1)
        assert {event.tid for event in grants} == {2, 3}
        assert cluster.holding(1) == {}

    def test_cross_worker_double_wait_violates_axiom_1(self):
        cluster = LocalCluster(workers=4)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.X).granted
        assert cluster.lock(2, b, LockMode.X).granted
        assert not cluster.lock(3, a, LockMode.S).granted
        with pytest.raises(LockTableError):
            cluster.lock(3, b, LockMode.S)

    def test_abort_latches_cluster_wide(self):
        cluster = LocalCluster(workers=2)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.X).granted
        cluster.cores[cluster.worker_index(a)]._aborted.add(1)
        with pytest.raises(LockTableError):
            cluster.lock(1, b, LockMode.S)


class TestMergedSnapshot:
    def test_merged_table_keeps_global_first_lock_order(self):
        cluster = LocalCluster(workers=4)
        reference = ShardedLockCore(shards=4)
        rids = ["R{}".format(i) for i in (9, 2, 14, 5, 1)]
        for tid, rid in enumerate(rids, start=1):
            assert cluster.lock(tid, rid, LockMode.S).granted
            assert reference.lock(tid, rid, LockMode.S).granted
        assert cluster.table.resource_ids() == rids
        assert str(cluster.table) == str(reference.table)

    def test_unreachable_worker_slice_is_absent_not_fatal(self):
        cluster = LocalCluster(workers=2)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.S).granted
        assert cluster.lock(2, b, LockMode.S).granted
        # Snapshots carry the waiting structure only: give each
        # resource a waiter so both slices have a row.
        assert not cluster.lock(3, a, LockMode.X).granted
        assert not cluster.lock(4, b, LockMode.X).granted
        down = cluster.worker_index(b)
        payloads = cluster._transport.snapshot_all()
        payloads[down] = None
        merged, unreachable, _ = merge_snapshots(payloads)
        assert unreachable == [down]
        assert list(merged) == [a]


class TestClusterDetection:
    """The behaviours are the conformance suite's (``tests/conformance``
    runs them on ``LocalCluster`` with 2 and 3 workers); what stays here
    is the coordinator's pass record, the 4-worker topology and the
    comparison against the *sharded* core the cluster is built from."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_example_41_across_workers_is_abort_free(self, workers):
        cluster = LocalCluster(workers=workers, policy="periodic")
        r1, r2 = rids_on_distinct_workers(cluster)
        result = scenarios.check_example_41_is_abort_free(cluster, r1, r2)
        info = result.cluster
        assert info is not None and info.workers == workers
        assert info.cross_worker_cycles >= 1
        assert info.stale_victims == 0 and info.stale_repositions == 0
        assert info.unreachable_workers == []

    def test_example_51_across_workers_routes_the_abort(self):
        cluster = LocalCluster(
            workers=4, costs=scenarios.example_51_costs(), policy="periodic"
        )
        r1, r2 = rids_on_distinct_workers(cluster)
        result = scenarios.check_example_51_routes_the_abort(cluster, r1, r2)
        assert result.cluster.cross_worker_cycles >= 1

    @pytest.mark.parametrize("example,costs", [
        (scenarios.feed_example_41, None),
        (scenarios.feed_example_51, scenarios.EXAMPLE_51_COSTS),
    ])
    def test_matches_the_sharded_resolution(self, example, costs):
        def build_costs():
            return CostTable(dict(costs)) if costs else None

        cluster = LocalCluster(
            workers=4, costs=build_costs(), policy="periodic"
        )
        r1, r2 = rids_on_distinct_workers(cluster)
        reference = ShardedLockCore(
            shards=4, costs=build_costs(), policy="periodic"
        )
        scenarios.check_matches_reference(
            cluster, reference, example, r1, r2
        )

    def test_pass_on_a_clean_cluster_does_nothing(self):
        cluster = LocalCluster(workers=4, policy="periodic")
        a, b = rids_on_distinct_workers(cluster)
        result = scenarios.check_clean_pass_does_nothing(cluster, a, b)
        assert result.cluster.cross_worker_cycles == 0

    def test_x_cycle_across_workers_needs_one_victim(self):
        cluster = LocalCluster(workers=4, policy="periodic")
        a, b = rids_on_distinct_workers(cluster)
        scenarios.check_x_cycle_needs_one_victim(cluster, a, b)


def rids_on_one_worker(cluster: LocalCluster, index: int, count: int):
    found = []
    i = 0
    while len(found) < count:
        i += 1
        rid = "A{}".format(i)
        if cluster.worker_index(rid) == index:
            found.append(rid)
    return found


class TestReleaseFanOut:
    """Snapshots carry the waiting structure only, so a victim's *idle*
    locks on other workers are invisible to the coordinator — it must
    free them all the same."""

    def test_victim_blocked_on_a_loses_its_idle_lock_on_b(self):
        cluster = LocalCluster(workers=2, policy="periodic")
        a1, a2 = rids_on_one_worker(cluster, 0, 2)
        (b,) = rids_on_one_worker(cluster, 1, 1)
        assert cluster.lock(1, b, LockMode.X).granted  # idle, worker B
        assert cluster.lock(1, a1, LockMode.X).granted
        assert cluster.lock(2, a2, LockMode.X).granted
        assert not cluster.lock(1, a2, LockMode.X).granted
        assert not cluster.lock(2, a1, LockMode.X).granted
        # The cycle lives wholly on worker A; nothing about ``b`` is in
        # any snapshot row.
        rows = [
            entry["rid"]
            for payload in cluster._transport.snapshot_all()
            for entry in payload["table"]["resources"]
        ]
        assert sorted(rows) == sorted([a1, a2])
        result = cluster.detect()
        assert result.aborted == [1]
        assert cluster.holding(1) == {}
        assert cluster.cores[1].was_aborted(1)
        assert cluster.lock(3, b, LockMode.X).granted
        cluster.finish(1)
        assert not any(core.was_aborted(1) for core in cluster.cores)

    def test_release_of_an_unknown_transaction_is_a_no_op(self):
        core = ShardedLockCore(shards=2, policy="periodic")
        assert core.lock(1, "R1", LockMode.X).granted
        assert core.release_victim(99) == []
        assert not core.was_aborted(99)
        assert core._aborted == set()
        assert core.holding(1) == {"R1": LockMode.X}


class TestStaleness:
    """The wire pass re-checks every resolution against live state —
    a transaction that moved between snapshot and resolve is spared,
    counted, and never guessed at."""

    def test_victim_that_unblocked_after_the_snapshot_is_spared(self):
        cluster = LocalCluster(workers=4)
        a, b = rids_on_distinct_workers(cluster)
        assert cluster.lock(1, a, LockMode.X).granted
        assert cluster.lock(2, b, LockMode.X).granted
        assert not cluster.lock(1, b, LockMode.X).granted
        assert not cluster.lock(2, a, LockMode.X).granted

        transport = LocalTransport(cluster)
        real_snapshot = transport.snapshot_all

        def racing_snapshot():
            payloads = real_snapshot()
            # After the snapshot is taken, both parties commit: the
            # deadlock the coordinator is about to resolve is gone.
            cluster.finish(1)
            cluster.finish(2)
            return payloads

        transport.snapshot_all = racing_snapshot
        from repro.cluster.coordinator import run_cluster_pass

        result = run_cluster_pass(transport, cluster.workers, cluster.costs)
        assert result.deadlock_found  # the snapshot showed a cycle
        assert result.aborted == []  # ... but nobody died for it
        assert result.cluster.stale_victims == len(result.resolutions)
        assert not any(cluster.was_aborted(tid) for tid in (1, 2))

    def test_reposition_against_a_moved_queue_is_dropped(self):
        cluster = LocalCluster(workers=4)
        r1, r2 = rids_on_distinct_workers(cluster)
        scenarios.feed_example_41(cluster, r1, r2)

        transport = LocalTransport(cluster)
        real_snapshot = transport.snapshot_all

        def racing_snapshot():
            payloads = real_snapshot()
            # T8 (the transaction TDR-2 wants to delay) gives up and
            # leaves the queue before the plan arrives.
            cluster.core_for(r2).finish(8)
            return payloads

        transport.snapshot_all = racing_snapshot
        from repro.cluster.coordinator import run_cluster_pass

        result = run_cluster_pass(transport, cluster.workers, cluster.costs)
        assert result.repositions == []
        assert result.cluster.stale_repositions >= 1


class TestResolvePlanIsAllOrNothing:
    """A resolution plan with a malformed item is refused whole:
    nothing lands on the core, so no victim is half-applied."""

    def test_a_malformed_later_victim_spares_the_earlier_one(self):
        from repro.cluster.coordinator import apply_resolution_plan

        core = ShardedLockCore()
        core.lock(1, "r1", LockMode.X)
        core.lock(2, "r2", LockMode.X)
        core.lock(1, "r2", LockMode.X)
        core.lock(2, "r1", LockMode.X)
        table = str(core.table)
        with pytest.raises(ValueError):
            apply_resolution_plan(
                core, {"victims": [{"tid": 2, "rid": "r1"}, {"tid": "x"}]}
            )
        assert str(core.table) == table
        assert not core.was_aborted(2)
        assert core.blocked_at(2) == "r1"
