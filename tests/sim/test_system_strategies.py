"""Focused simulator-policy interactions: timeout accounting,
prevention revalidation, batched lane in the full system."""

from repro.baselines import BatchedPolicy, TimeoutPolicy, WoundWaitPolicy
from repro.baselines.wfg import has_deadlock
from repro.sim.system import SimulatedSystem
from repro.sim.workload import WorkloadSpec

HOT = WorkloadSpec(
    resources=12,
    hotspot_resources=4,
    hotspot_probability=0.8,
    min_size=3,
    max_size=6,
    write_fraction=0.5,
    upgrade_fraction=0.2,
)


class TestTimeoutAccounting:
    def test_timeout_aborts_booked_separately(self):
        system = SimulatedSystem(
            HOT, TimeoutPolicy(5.0), terminals=6, seed=2, period=None
        )
        metrics = system.run(duration=120.0)
        assert metrics.timeout_aborts > 0
        assert metrics.deadlock_aborts == 0
        assert metrics.total_aborts == (
            metrics.timeout_aborts + metrics.prevention_aborts
        )

    def test_long_timeout_lets_deadlocks_sit(self):
        fast = SimulatedSystem(
            HOT, TimeoutPolicy(3.0), terminals=6, seed=2, period=None
        ).run(duration=120.0)
        slow = SimulatedSystem(
            HOT, TimeoutPolicy(30.0), terminals=6, seed=2, period=None
        ).run(duration=120.0)
        assert (
            slow.mean_deadlock_latency >= fast.mean_deadlock_latency
        )


class TestPreventionRevalidation:
    def test_wound_wait_keeps_latency_tiny(self):
        system = SimulatedSystem(
            HOT, WoundWaitPolicy(), terminals=6, seed=3, period=None,
            tick_interval=0.5,
        )
        metrics = system.run(duration=120.0)
        # Grant-time cycles are caught by the tick revalidation within
        # one tick; persistent deadlock would show up here.
        assert metrics.mean_deadlock_latency <= 1.0
        assert not has_deadlock(system.table)

    def test_prevention_aborts_booked(self):
        system = SimulatedSystem(
            HOT, WoundWaitPolicy(), terminals=6, seed=3, period=None
        )
        metrics = system.run(duration=120.0)
        assert metrics.prevention_aborts > 0
        assert metrics.deadlock_aborts == 0


class TestBatchedInSystem:
    def test_batched_runs_clean(self):
        system = SimulatedSystem(
            HOT, BatchedPolicy(batch_size=3), terminals=6, seed=4,
            period=8.0,
        )
        metrics = system.run(duration=120.0)
        assert metrics.commits > 0
        assert not has_deadlock(system.table)

    def test_batched_latency_beats_same_period(self):
        from repro.policy import PeriodicPolicy

        batched = SimulatedSystem(
            HOT, BatchedPolicy(batch_size=3), terminals=6, seed=4,
            period=12.0,
        ).run(duration=150.0)
        periodic = SimulatedSystem(
            HOT, PeriodicPolicy(), terminals=6, seed=4, period=12.0
        ).run(duration=150.0)
        assert (
            batched.mean_deadlock_latency
            <= periodic.mean_deadlock_latency
        )
