"""Experiment runner helpers."""

from repro.baselines import WFGPolicy
from repro.policy import PeriodicPolicy
from repro.sim.runner import (
    aggregate,
    compare_strategies,
    run_once,
    sweep_period,
)
from repro.sim.workload import WorkloadSpec

SPEC = WorkloadSpec(
    resources=24, hotspot_resources=4, min_size=2, max_size=4,
    write_fraction=0.4, upgrade_fraction=0.2,
)


class TestRunOnce:
    def test_returns_result(self):
        result = run_once(
            SPEC, PeriodicPolicy(), duration=40.0, terminals=4, seed=1
        )
        assert result.strategy == "park-periodic"
        assert result.metrics.commits > 0
        assert result.config["terminals"] == 4


class TestCompare:
    def test_one_result_per_strategy_and_seed(self):
        results = compare_strategies(
            SPEC,
            [PeriodicPolicy, WFGPolicy],
            duration=40.0,
            terminals=4,
            seeds=(1, 2),
        )
        assert len(results) == 4
        names = {r.strategy for r in results}
        assert names == {"park-periodic", "wfg-continuous"}

    def test_aggregate_averages(self):
        results = compare_strategies(
            SPEC, [PeriodicPolicy], duration=40.0, terminals=4,
            seeds=(1, 2),
        )
        summary = aggregate(results)
        assert "park-periodic" in summary
        expected = (
            results[0].metrics.summary()["commits"]
            + results[1].metrics.summary()["commits"]
        ) / 2
        assert summary["park-periodic"]["commits"] == expected


class TestSweep:
    def test_period_recorded(self):
        results = sweep_period(
            SPEC,
            PeriodicPolicy,
            periods=[2.0, 20.0],
            duration=60.0,
            terminals=4,
            seed=1,
        )
        assert [r.config["period"] for r in results] == [2.0, 20.0]

    def test_longer_period_fewer_passes(self):
        results = sweep_period(
            SPEC,
            PeriodicPolicy,
            periods=[2.0, 20.0],
            duration=60.0,
            terminals=4,
            seed=1,
        )
        assert (
            results[0].metrics.detection_passes
            > results[1].metrics.detection_passes
        )
