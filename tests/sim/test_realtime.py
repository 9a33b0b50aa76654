"""The real-time closed-loop harness (injected manager factories)."""

import pytest

from repro.lockmgr import ConcurrentLockManager
from repro.sim.realtime import RealtimeMetrics, run_realtime
from repro.sim.workload import WorkloadSpec

QUICK_SPEC = WorkloadSpec(
    resources=24,
    hotspot_resources=4,
    hotspot_probability=0.5,
    min_size=2,
    max_size=4,
    write_fraction=0.3,
    upgrade_fraction=0.1,
)


class TestRunRealtime:
    def test_local_backend_commits_everything(self):
        metrics = run_realtime(
            lambda: ConcurrentLockManager(period=0.05),
            spec=QUICK_SPEC,
            workers=3,
            txns_per_worker=4,
            seed=3,
            lock_timeout=0.3,
        )
        assert metrics.commits == 3 * 4
        assert metrics.lock_calls >= metrics.commits
        assert metrics.wall_time > 0.0
        assert metrics.throughput > 0.0

    def test_remote_backend_commits_everything(self):
        service = pytest.importorskip("repro.service")
        with service.LoopbackServer(period=0.05) as server:
            metrics = run_realtime(
                lambda: service.RemoteLockManager(
                    server.host, server.port
                ),
                spec=QUICK_SPEC,
                workers=3,
                txns_per_worker=3,
                seed=3,
                lock_timeout=0.3,
            )
        assert metrics.commits == 3 * 3

    def test_summary_fields(self):
        metrics = RealtimeMetrics(commits=10, wall_time=2.0)
        summary = metrics.summary()
        assert summary["commits"] == 10
        assert summary["throughput"] == 5.0

    def test_zero_time_throughput(self):
        assert RealtimeMetrics().throughput == 0.0
