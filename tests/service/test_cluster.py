"""Wire-level cluster acceptance: real worker processes, the
``snapshot`` op, cross-process deadlock resolution, and the fail-fast
worker-death path.

These tests spawn genuine ``LockServer`` processes through
:class:`~repro.cluster.supervisor.ClusterSupervisor` and drive them
with :class:`~repro.cluster.client.ClusterLockManager` — the detector
coordinator merges per-process snapshots over the wire and routes the
resolutions (victims and TDR-2 repositionings) back to the owning
workers, exactly as ``docs/CLUSTER.md`` describes.
"""

import threading
import time

import pytest

from repro.cluster import ClusterSupervisor
from repro.cluster.client import ClusterLockManager
from repro.cluster.coordinator import worker_of
from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service.protocol import ServiceError


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def rids_on_distinct_workers(workers: int, count: int = 2):
    found = {}
    i = 0
    while len(found) < count:
        i += 1
        rid = "R{}".format(i)
        index = worker_of(rid, workers)
        if index not in found:
            found[index] = rid
    return list(found.values())


@pytest.fixture
def cluster2():
    with ClusterSupervisor(workers=2, period=None) as supervisor:
        manager = ClusterLockManager(supervisor.endpoints())
        try:
            yield supervisor, manager
        finally:
            manager.close()


class TestSnapshotOp:
    def test_snapshot_serves_the_partition_slice(self, cluster2):
        supervisor, manager = cluster2
        a, b = rids_on_distinct_workers(2)
        for tid in (1, 2, 3):
            manager.begin(tid)
        assert manager.acquire(1, a, LockMode.S, timeout=5.0)
        assert manager.acquire(1, b, LockMode.X, timeout=5.0)
        # The op serves the waiting structure: give each slice a waiter
        # (a timed-out acquire stays queued).
        assert not manager.acquire(2, a, LockMode.X, timeout=0.2)
        assert not manager.acquire(3, b, LockMode.S, timeout=0.2)
        payloads = supervisor._transport.snapshot_all()
        assert len(payloads) == 2
        for index, payload in enumerate(payloads):
            assert payload is not None
            assert payload["v"] == 1
            rids = [
                entry["rid"] for entry in payload["table"]["resources"]
            ]
            assert rids == [a if worker_of(a, 2) == index else b]
            assert set(payload["sequence"]) == set(rids)
            (waiter,) = payload["held"]
            assert waiter["rids"] == []
        served = [row["snapshots_served"] for row in manager.stats()]
        assert served == [1, 1]


class TestCrossProcessResolution:
    def test_victim_abort_spans_two_worker_processes(self, cluster2):
        """The acceptance cycle: two transactions, each holding on one
        worker process and waiting on the other.  The coordinator must
        confirm the victim at the worker owning its wait and release
        its locks at the worker owning its holds."""
        supervisor, manager = cluster2
        a, b = rids_on_distinct_workers(2)
        manager.begin(1)
        manager.begin(2)
        assert manager.acquire(1, a, LockMode.X, timeout=5.0)
        assert manager.acquire(2, b, LockMode.X, timeout=5.0)

        outcomes = {}

        def wait_for(tid, rid):
            try:
                outcomes[tid] = manager.acquire(
                    tid, rid, LockMode.X, timeout=20.0
                )
            except TransactionAborted:
                outcomes[tid] = "aborted"

        threads = [
            threading.Thread(target=wait_for, args=(1, b)),
            threading.Thread(target=wait_for, args=(2, a)),
        ]
        for thread in threads:
            thread.start()
        assert wait_until(manager.deadlocked)

        result = supervisor.detect()
        assert result.deadlock_found
        assert len(result.aborted) == 1
        assert result.cluster.cross_worker_cycles == 1
        assert result.cluster.stale_victims == 0
        assert result.cluster.unreachable_workers == []

        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive()
        victim = result.aborted[0]
        survivor = ({1, 2} - {victim}).pop()
        assert outcomes[victim] == "aborted"
        assert outcomes[survivor] is True
        assert set(manager.holding(survivor)) == {a, b}

        # The owning workers counted the routed resolution: the abort
        # was confirmed on the worker holding the victim's wait, and
        # the release ran on the other.
        rows = manager.stats()
        assert sum(row["cluster_victims_aborted"] for row in rows) == 1
        assert sum(row["cluster_releases"] for row in rows) == 1
        assert sum(row["cluster_stale_resolutions"] for row in rows) == 0
        manager.commit(survivor)

    def test_victim_loses_its_idle_lock_on_the_other_worker(self, cluster2):
        """A victim blocked on worker A holding an *idle* lock on
        worker B: no snapshot row mentions that lock (payloads carry the
        waiting structure only), yet the pass must free it."""
        supervisor, manager = cluster2
        pools = {0: [], 1: []}
        i = 0
        while len(pools[0]) < 2 or not pools[1]:
            i += 1
            pools[worker_of("A{}".format(i), 2)].append("A{}".format(i))
        (a1, a2), b = pools[0][:2], pools[1][0]
        for tid in (1, 2, 3):
            manager.begin(tid)
        assert manager.acquire(1, b, LockMode.X, timeout=5.0)
        assert manager.acquire(1, a1, LockMode.X, timeout=5.0)
        assert manager.acquire(2, a2, LockMode.X, timeout=5.0)

        outcomes = {}

        def wait_for(tid, rid):
            try:
                outcomes[tid] = manager.acquire(
                    tid, rid, LockMode.X, timeout=20.0
                )
            except TransactionAborted:
                outcomes[tid] = "aborted"

        threads = [
            threading.Thread(target=wait_for, args=(1, a2)),
            threading.Thread(target=wait_for, args=(2, a1)),
        ]
        for thread in threads:
            thread.start()
        assert wait_until(manager.deadlocked)
        result = supervisor.detect()
        assert result.aborted == [1]
        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive()
        assert outcomes == {1: "aborted", 2: True}
        # Before T1's client says a word: its lock on worker B is gone.
        assert manager.acquire(3, b, LockMode.X, timeout=5.0)
        rows = manager.stats()
        assert rows[0]["cluster_victims_aborted"] == 1
        assert rows[1]["cluster_releases"] == 1
        manager.abort(1)
        manager.commit(2)
        manager.commit(3)

    def test_example_41_resolves_abort_free_across_processes(self, cluster2):
        """Example 4.1 with its two resources owned by different worker
        processes: the coordinator must apply the TDR-2 repositioning on
        the owning worker and nobody dies."""
        supervisor, manager = cluster2
        r1, r2 = rids_on_distinct_workers(2)
        for tid in range(1, 10):
            manager.begin(tid)
        assert manager.acquire(7, r2, LockMode.IS, timeout=5.0)
        assert manager.acquire(1, r1, LockMode.IX, timeout=5.0)
        assert manager.acquire(2, r1, LockMode.IS, timeout=5.0)
        assert manager.acquire(3, r1, LockMode.IX, timeout=5.0)
        assert manager.acquire(4, r1, LockMode.IS, timeout=5.0)

        outcomes = {}

        def wait_for(tid, rid, mode):
            try:
                outcomes[tid] = manager.acquire(tid, rid, mode, timeout=20.0)
            except (TransactionAborted, ServiceError) as exc:
                outcomes[tid] = exc

        waits = [
            (1, r1, LockMode.S),
            (2, r1, LockMode.S),
            (5, r1, LockMode.IX),
            (6, r1, LockMode.S),
            (7, r1, LockMode.IX),
            (8, r2, LockMode.X),
            (9, r2, LockMode.IX),
            (3, r2, LockMode.S),
            (4, r2, LockMode.X),
        ]
        def blocked_total():
            return sum(
                row["blocks"] for row in manager.stats() if row is not None
            )

        threads = []
        for count, (tid, rid, mode) in enumerate(waits, start=1):
            thread = threading.Thread(target=wait_for, args=(tid, rid, mode))
            thread.start()
            threads.append(thread)
            # The paper's queue orders are position-sensitive: park each
            # waiter before issuing the next.
            assert wait_until(lambda c=count: blocked_total() >= c)
        assert wait_until(manager.deadlocked)

        result = supervisor.detect()
        assert result.deadlock_found
        assert result.abort_free
        assert result.aborted == []
        assert [
            (event.rid, tuple(event.delayed))
            for event in result.repositions
        ] == [(r2, (8,))]
        assert result.cluster.cross_worker_cycles >= 1
        assert result.cluster.stale_repositions == 0

        # T9 — the request the repositioning unblocks — gets its grant.
        assert wait_until(lambda: outcomes.get(9) is True)
        rows = manager.stats()
        assert sum(row["cluster_repositionings"] for row in rows) == 1

        # Drain: commit everyone so the parked waiters resolve quickly.
        for tid in (9, 1, 2, 3, 4, 5, 6, 7, 8):
            try:
                manager.abort(tid)
            except (ServiceError, TransactionAborted):
                pass
        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive()


class TestWorkerDeath:
    def test_pending_request_fails_fast_and_worker_is_reaped(self, cluster2):
        supervisor, manager = cluster2
        a, b = rids_on_distinct_workers(2)
        doomed = worker_of(b, 2)
        manager.begin(1)
        manager.begin(2)
        assert manager.acquire(1, b, LockMode.X, timeout=5.0)

        failure = {}

        def blocked_wait():
            started = time.monotonic()
            try:
                manager.acquire(2, b, LockMode.X, timeout=60.0)
            except ServiceError as exc:
                failure["error"] = exc
            except TransactionAborted as exc:  # pragma: no cover
                failure["error"] = exc
            failure["seconds"] = time.monotonic() - started

        thread = threading.Thread(target=blocked_wait)
        thread.start()
        assert wait_until(
            lambda: any(
                row is not None and row["blocks"] >= 1
                for row in manager.stats()
            )
        )

        supervisor._handles[doomed].process.kill()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "pending frame did not fail fast"
        error = failure["error"]
        assert isinstance(error, ServiceError)
        assert error.code == "worker-down"
        assert failure["seconds"] < 30.0

        # The supervisor reaps the corpse and counts it.
        assert wait_until(
            lambda: supervisor._handles[doomed].reaped
        )
        assert doomed in supervisor.dead_workers()
        assert (
            supervisor.registry.get(
                "repro_cluster_worker_deaths_total"
            ).value
            >= 1
        )

        # The client latched the worker: the next call fails instantly.
        started = time.monotonic()
        with pytest.raises(ServiceError) as caught:
            manager.acquire(2, b, LockMode.S, timeout=5.0)
        assert caught.value.code == "worker-down"
        assert time.monotonic() - started < 1.0
        assert manager.down_workers() == [doomed]

        # The detector keeps running on the surviving slice.
        result = supervisor.detect()
        assert result.cluster.unreachable_workers == [doomed]

        # The surviving worker still serves its partition.
        alive = ({0, 1} - {doomed}).pop()
        rid_alive = a if worker_of(a, 2) == alive else b
        assert manager.acquire(1, rid_alive, LockMode.S, timeout=5.0)
