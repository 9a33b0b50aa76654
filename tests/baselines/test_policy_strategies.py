"""The policy-layer comparison lanes: nowait and park-adaptive.

Satellite coverage for the baselines under a small contention sweep:
the sweep's summaries round-trip through validated ``repro.bench/1``
records, and the nowait lane's abort accounting lands in the same
*prevention* lane wound-wait and wait-die use, so the strategies are
directly comparable in the X-series reports.  Both lanes are the live
policies themselves, run on the simulator's lock core.
"""

import pytest

from repro.baselines import WaitDiePolicy, WoundWaitPolicy
from repro.core.modes import LockMode
from repro.lockmgr.sharded import ShardedLockCore
from repro.obs.bench import build_record, validate_record
from repro.policy import AdaptivePolicy, NoWaitPolicy, PeriodicPolicy
from repro.policy.nowait import ABORT_REASON, wait_is_ordered
from repro.sim.runner import run_once
from repro.sim.workload import WorkloadSpec

#: Small write-heavy hot set: the regime where prevention lanes pay
#: aborts constantly and detection lanes pay latency constantly.
HOT = WorkloadSpec(
    resources=16,
    hotspot_resources=3,
    hotspot_probability=0.8,
    min_size=2,
    max_size=4,
    write_fraction=0.8,
    upgrade_fraction=0.0,
    mean_work=0.5,
    think_time=1.0,
    restart_delay=0.2,
)


def simulate(policy, duration=120.0, seed=1, period=10.0):
    return run_once(
        HOT, policy, duration=duration, terminals=6, seed=seed,
        period=period,
    )


class TestNoWaitStrategy:
    def test_shares_the_policy_rule(self):
        """On the simulator's core the lane refuses exactly the waits
        the ordered rule refuses."""
        core = ShardedLockCore(policy=NoWaitPolicy())
        assert core.lock(1, "R2", LockMode.X).granted
        assert core.lock(2, "R1", LockMode.X).granted
        # T2 holds R1 < R2: in order, the wait may stand.
        assert not core.lock(2, "R2", LockMode.X).granted
        assert core.last_detection is None
        assert wait_is_ordered(["R1"], "R2", conversion=False)
        # T1 holds R2 > R1: out of order, the requester dies.
        assert not core.lock(1, "R1", LockMode.X).granted
        result = core.last_detection
        assert result.aborted == [1]
        assert result.abort_reason == ABORT_REASON
        assert not wait_is_ordered(["R2"], "R1", conversion=False)
        assert core.policy.aborts == 1

    def test_unblocked_requester_is_left_alone(self):
        core = ShardedLockCore(policy=NoWaitPolicy())
        assert core.lock(7, "R1", LockMode.S).granted
        assert core.lock(8, "R1", LockMode.S).granted
        assert core.last_detection is None
        assert core.policy.aborts == 0

    def test_never_runs_a_detector(self):
        result = simulate(NoWaitPolicy())
        assert result.metrics.detection_passes == 0
        assert result.metrics.deadlock_aborts == 0

    def test_oracle_sees_no_deadlock_episodes(self):
        """The deadlock-freedom property, observed end to end: the
        ground-truth oracle never catches a standing cycle."""
        for seed in (1, 2, 3):
            metrics = simulate(NoWaitPolicy(), seed=seed).metrics
            assert metrics.deadlock_episodes == 0
            assert metrics.deadlock_latency_total == 0.0

    def test_abort_accounting_matches_the_prevention_lane(self):
        """Where nowait and the timestamp-prevention schemes overlap —
        block-time aborts instead of waits — the driver books them
        identically: all in ``prevention_aborts``, none in the deadlock
        or timeout lanes, one restart per abort."""
        for policy_cls in (NoWaitPolicy, WaitDiePolicy, WoundWaitPolicy):
            policy = policy_cls()
            metrics = simulate(policy).metrics
            assert metrics.deadlock_aborts == 0
            assert metrics.timeout_aborts == 0
            assert metrics.total_aborts == metrics.prevention_aborts
            assert metrics.restarts == metrics.total_aborts
            if isinstance(policy, NoWaitPolicy):
                assert metrics.prevention_aborts > 0
                assert policy.aborts == metrics.prevention_aborts


class TestAdaptiveStrategy:
    def test_driver_consults_the_controller(self):
        policy = AdaptivePolicy()
        assert policy.current_period(10.0) == 5.0  # clamped to max
        assert policy.controller.period == 5.0

    def test_hot_workload_shrinks_the_period(self):
        policy = AdaptivePolicy()
        simulate(policy)
        info = policy.controller.describe()
        assert info["period"] < 5.0
        assert info["adjustments"] > 0
        assert info["passes"] > 0

    def test_adaptive_beats_the_fixed_default(self):
        fixed = simulate(PeriodicPolicy()).metrics
        adaptive = simulate(AdaptivePolicy()).metrics
        assert adaptive.throughput > fixed.throughput

    def test_fixed_period_strategy_keeps_the_default(self):
        policy = PeriodicPolicy()
        assert policy.current_period(10.0) == 10.0
        assert policy.current_period(None) is None


class TestSweepRecords:
    def test_contention_sweep_emits_valid_bench_records(self):
        """A miniature of ``benchmarks/bench_policies.py``: one record
        per (strategy, period) cell, each conforming to repro.bench/1
        with the abort rate alongside the throughput."""
        records = []
        for name, factory, period in [
            ("park-periodic", PeriodicPolicy, 2.0),
            ("park-periodic", PeriodicPolicy, 10.0),
            ("park-adaptive", AdaptivePolicy, 10.0),
            ("nowait", NoWaitPolicy, 10.0),
        ]:
            metrics = simulate(factory(), period=period).metrics
            summary = metrics.summary()
            summary["abort_rate"] = (
                metrics.total_aborts / metrics.duration
            )
            records.append(
                build_record(
                    "policy_sweep",
                    summary,
                    params={
                        "strategy": name,
                        "period": period,
                        "workload": "hot",
                        "policy": name.replace("park-", ""),
                    },
                )
            )
        assert len(records) == 4
        for record in records:
            assert validate_record(record) == []
            assert "abort_rate" in record["summary"]
            assert "policy" in record["params"]
        by_name = {
            (r["params"]["strategy"], r["params"]["period"]): r
            for r in records
        }
        nowait = by_name[("nowait", 10.0)]["summary"]
        periodic = by_name[("park-periodic", 10.0)]["summary"]
        assert nowait["detection_passes"] == 0
        assert nowait["throughput"] > periodic["throughput"]

    def test_records_reject_corruption(self):
        record = build_record(
            "policy_sweep", {"throughput": 1.0}, params={"policy": "nowait"}
        )
        record["summary"]["throughput"] = "fast"
        assert validate_record(record)
