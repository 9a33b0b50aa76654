"""The simulated system: every scheme drives to completion and the
metrics make sense."""

import pytest

from repro.baselines import (
    AgrawalPolicy,
    BatchedPolicy,
    ElmagarmidPolicy,
    JiangPolicy,
    TimeoutPolicy,
    WaitDiePolicy,
    WFGPolicy,
    WoundWaitPolicy,
)
from repro.baselines.wfg import has_deadlock
from repro.policy import ContinuousPolicy, PeriodicPolicy
from repro.sim.metrics import Metrics
from repro.sim.system import SimulatedSystem
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=30,
    hotspot_resources=5,
    min_size=2,
    max_size=5,
    write_fraction=0.4,
    upgrade_fraction=0.2,
)

#: Every scheme, under the ids these runs have always been reported by.
ALL_STRATEGIES = {
    "ParkPeriodicStrategy": PeriodicPolicy,
    "ParkContinuousStrategy": ContinuousPolicy,
    "AgrawalStrategy": AgrawalPolicy,
    "ElmagarmidStrategy": ElmagarmidPolicy,
    "JiangStrategy": JiangPolicy,
    "<lambda>0": WFGPolicy,
    "<lambda>1": lambda: BatchedPolicy(4),
    "<lambda>2": lambda: TimeoutPolicy(10.0),
    "WoundWaitStrategy": WoundWaitPolicy,
    "WaitDieStrategy": WaitDiePolicy,
}


@pytest.mark.parametrize(
    "factory", list(ALL_STRATEGIES.values()), ids=list(ALL_STRATEGIES)
)
def test_strategy_completes_run(factory):
    system = SimulatedSystem(
        SPEC, factory(), terminals=5, seed=3, period=5.0
    )
    metrics = system.run(duration=80.0)
    assert metrics.commits > 0
    assert metrics.duration == 80.0
    # The run must end without standing deadlock for detection schemes.
    if system.policy.wait_limit is None:
        assert not has_deadlock(system.table) or metrics.deadlock_episodes >= 0


class TestMetricsShape:
    def test_summary_keys(self):
        metrics = Metrics(duration=10.0, commits=5)
        summary = metrics.summary()
        assert summary["commits"] == 5
        assert summary["throughput"] == 0.5

    def test_mean_response_empty(self):
        assert Metrics().mean_response_time == 0.0

    def test_wasted_fraction(self):
        metrics = Metrics(useful_work=3.0, wasted_work=1.0)
        assert metrics.wasted_fraction == 0.25

    def test_mean_deadlock_latency(self):
        metrics = Metrics(deadlock_episodes=2, deadlock_latency_total=5.0)
        assert metrics.mean_deadlock_latency == 2.5

    def test_total_aborts(self):
        metrics = Metrics(
            deadlock_aborts=1, prevention_aborts=2, timeout_aborts=3
        )
        assert metrics.total_aborts == 6


class TestSystemBehavior:
    def test_determinism(self):
        runs = []
        for _ in range(2):
            system = SimulatedSystem(
                SPEC, PeriodicPolicy(), terminals=4, seed=11, period=5.0
            )
            runs.append(system.run(duration=60.0).summary())
        assert runs[0] == runs[1]

    def test_seed_changes_outcome(self):
        outcomes = []
        for seed in (1, 2):
            system = SimulatedSystem(
                SPEC, PeriodicPolicy(), terminals=4, seed=seed, period=5.0
            )
            outcomes.append(system.run(duration=60.0).summary())
        assert outcomes[0] != outcomes[1]

    def test_periodic_pass_counter(self):
        system = SimulatedSystem(
            SPEC, PeriodicPolicy(), terminals=4, seed=5, period=10.0
        )
        metrics = system.run(duration=95.0)
        assert metrics.detection_passes == 9

    def test_oracle_disabled(self):
        system = SimulatedSystem(
            SPEC,
            PeriodicPolicy(),
            terminals=4,
            seed=5,
            period=5.0,
            oracle=False,
        )
        metrics = system.run(duration=50.0)
        assert metrics.deadlock_episodes == 0

    def test_prevention_never_reports_deadlock_aborts(self):
        system = SimulatedSystem(
            SPEC, WoundWaitPolicy(), terminals=5, seed=7, period=None
        )
        metrics = system.run(duration=60.0)
        assert metrics.deadlock_aborts == 0
        assert metrics.prevention_aborts >= 0

    def test_park_accumulates_abort_free_resolutions(self):
        spec = WorkloadSpec(
            resources=12,
            hotspot_resources=6,
            min_size=2,
            max_size=5,
            write_fraction=0.3,
            upgrade_fraction=0.5,
        )
        system = SimulatedSystem(
            spec, ContinuousPolicy(), terminals=8, seed=2, period=None
        )
        metrics = system.run(duration=150.0)
        assert metrics.deadlocks_resolved > 0
