"""Trace-context propagation across the coordinator pass.

Every :func:`~repro.cluster.coordinator.run_cluster_pass` mints one
trace id and a coordinator pass-span ref; each resolution plan it
routes carries both as ``plan["ctx"]``, and the incident record cites
the same trace — one causally-linked story per deadlock, even across
the JSON wire.
"""

from __future__ import annotations

from repro.cluster import LocalCluster
from repro.core.modes import LockMode
from repro.obs.incidents import validate_incident

from .test_local import rids_on_distinct_workers


def cross_worker_deadlock(cluster: LocalCluster):
    """T1 holds on one worker and waits on the other; T2 mirrors it."""
    a, b = rids_on_distinct_workers(cluster)
    assert cluster.lock(1, a, LockMode.X).granted
    assert cluster.lock(2, b, LockMode.X).granted
    assert not cluster.lock(1, b, LockMode.X).granted
    assert not cluster.lock(2, a, LockMode.X).granted
    assert cluster.deadlocked()
    return a, b


class TestLocalClusterPass:
    def test_pass_mints_one_trace_and_a_pass_span_ref(self):
        cluster = LocalCluster(workers=2)
        cross_worker_deadlock(cluster)
        result = cluster.detect()
        assert result.deadlock_found
        info = result.routing
        assert info.trace is not None and info.trace.startswith("trace-")
        suffix = info.trace[len("trace-"):]
        assert info.span == "coord:pass-" + suffix

    def test_every_routed_plan_carries_the_pass_ctx(self):
        cluster = LocalCluster(workers=2)
        cross_worker_deadlock(cluster)
        result = cluster.detect()
        assert result.deadlock_found
        info = result.routing
        plans = cluster._transport.resolved_plans
        # The cycle spans both workers, so resolving it routed at least
        # one plan — and the victim's locks are swept on every worker
        # it touched, each hop stamped with the same pass context.
        assert plans
        assert {entry["worker"] for entry in plans} == {0, 1}
        for entry in plans:
            assert entry["plan"]["ctx"] == {
                "trace": info.trace,
                "span": info.span,
            }

    def test_incident_record_cites_the_same_trace(self):
        cluster = LocalCluster(workers=2)
        cross_worker_deadlock(cluster)
        result = cluster.detect()
        assert result.deadlock_found
        record = cluster.incidents.recent()[-1]
        assert validate_incident(record) == []
        assert record["source"] == "cluster"
        assert record["workers"] == 2
        assert record["trace"] == result.routing.trace
        assert record["span"] == result.routing.span

    def test_each_pass_mints_a_fresh_trace(self):
        cluster = LocalCluster(workers=2)
        cross_worker_deadlock(cluster)
        first = cluster.detect()
        assert first.deadlock_found
        for tid in (1, 2):
            cluster.finish(tid)
        cross_worker_deadlock(LocalCluster(workers=2))
        cluster2 = LocalCluster(workers=2)
        cross_worker_deadlock(cluster2)
        second = cluster2.detect()
        assert second.deadlock_found
        assert first.routing.trace != second.routing.trace
