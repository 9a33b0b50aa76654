"""Multi-seed statistics and the simulator's cost-policy hook."""

from repro.policy import PeriodicPolicy
from repro.sim.runner import aggregate_stats, compare_strategies
from repro.sim.system import SimulatedSystem
from repro.sim.workload import (
    PRESETS,
    WorkloadSpec,
    conversion_heavy,
    five_mode,
    high_contention,
    low_contention,
)

SPEC = WorkloadSpec(
    resources=24, hotspot_resources=4, min_size=2, max_size=4,
    write_fraction=0.4, upgrade_fraction=0.2,
)


class TestAggregateStats:
    def test_mean_std_range(self):
        results = compare_strategies(
            SPEC, [PeriodicPolicy], duration=40.0, terminals=4,
            seeds=(1, 2, 3),
        )
        stats = aggregate_stats(results)["park-periodic"]
        commits = stats["commits"]
        assert commits["min"] <= commits["mean"] <= commits["max"]
        assert commits["std"] >= 0.0

    def test_single_seed_zero_std(self):
        results = compare_strategies(
            SPEC, [PeriodicPolicy], duration=30.0, terminals=3,
            seeds=(1,),
        )
        stats = aggregate_stats(results)["park-periodic"]
        assert stats["commits"]["std"] == 0.0


class TestPresets:
    def test_all_presets_valid(self):
        for name, factory in PRESETS.items():
            spec = factory()
            spec.validate()

    def test_contention_ordering(self):
        assert (
            low_contention().hotspot_probability
            < high_contention().hotspot_probability
        )
        assert conversion_heavy().upgrade_fraction > 0.5
        assert five_mode().use_intents


class TestCostPolicyHook:
    def test_custom_policy_changes_victims(self):
        def protect_odd(terminal, now):
            # Terminals with odd index are priceless; evens are cheap.
            return 1000.0 if terminal.index % 2 else 1.0

        system = SimulatedSystem(
            SPEC,
            PeriodicPolicy(),
            terminals=4,
            seed=3,
            period=4.0,
            cost_policy=protect_odd,
        )
        metrics = system.run(duration=120.0)
        if metrics.deadlock_aborts:
            # All victims came from the cheap even terminals.
            restarts_by_parity = {0: 0, 1: 0}
            for terminal in system.terminals:
                restarts_by_parity[terminal.index % 2] += terminal.restarts
            assert restarts_by_parity[1] == 0

    def test_default_policy_tracks_work(self):
        system = SimulatedSystem(
            SPEC, PeriodicPolicy(), terminals=3, seed=1, period=5.0
        )
        system.run(duration=30.0)
        # Costs exist for live transactions and are >= 1.
        for terminal in system.terminals:
            if terminal.tid is not None:
                assert system.costs.cost(terminal.tid) >= 1.0
