"""The adaptive period controller and its policy wrapper."""

import pytest

from repro.core.modes import LockMode
from repro.lockmgr import LockManager
from repro.lockmgr.sharded import ShardedLockCore
from repro.policy import AdaptiveController, AdaptivePolicy


class TestController:
    def test_seeds_from_host_default(self):
        controller = AdaptiveController()
        assert controller.consult(None) is None
        assert controller.consult(0.5) == 0.5
        assert controller.period == 0.5

    def test_seed_is_clamped(self):
        controller = AdaptiveController(min_period=0.1, max_period=1.0)
        assert controller.consult(60.0) == 1.0
        controller = AdaptiveController(min_period=0.1, max_period=1.0)
        assert controller.consult(0.001) == 0.1

    def test_hot_pass_shrinks(self):
        controller = AdaptiveController()
        controller.consult(1.0)
        controller.observe(found_cycles=True, can_continuous=False)
        assert controller.period == 0.5
        assert controller.adjustments == 1

    def test_shrink_clamps_at_min(self):
        controller = AdaptiveController(min_period=0.4)
        controller.consult(0.5)
        controller.observe(found_cycles=True, can_continuous=False)
        assert controller.period == 0.4

    def test_growth_needs_consecutive_clean_passes(self):
        controller = AdaptiveController()
        controller.consult(1.0)
        controller.observe(found_cycles=False, can_continuous=False)
        assert controller.period == 1.0  # one clean pass: no change
        controller.observe(found_cycles=False, can_continuous=False)
        assert controller.period == 1.5
        controller.observe(found_cycles=False, can_continuous=False)
        assert controller.period == pytest.approx(2.25)

    def test_grow_clamps_at_max(self):
        controller = AdaptiveController(max_period=1.2)
        controller.consult(1.0)
        for _ in range(5):
            controller.observe(found_cycles=False, can_continuous=False)
        assert controller.period == 1.2

    def test_switches_to_continuous_after_hot_streak(self):
        controller = AdaptiveController()
        controller.consult(1.0)
        for _ in range(3):
            controller.observe(found_cycles=True, can_continuous=True)
        assert controller.mode == "continuous"
        assert controller.mode_switches == 1

    def test_never_switches_multi_shard(self):
        controller = AdaptiveController()
        controller.consult(1.0)
        for _ in range(10):
            controller.observe(found_cycles=True, can_continuous=False)
        assert controller.mode == "periodic"
        assert controller.mode_switches == 0

    def test_switches_back_after_idle_streak(self):
        controller = AdaptiveController()
        for _ in range(3):
            controller.observe(found_cycles=True, can_continuous=True)
        assert controller.mode == "continuous"
        for _ in range(3):
            controller.observe(found_cycles=False, can_continuous=True)
        assert controller.mode == "periodic"
        assert controller.mode_switches == 2

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveController(min_period=2.0, max_period=1.0)
        with pytest.raises(ValueError):
            AdaptiveController(shrink=1.5)
        with pytest.raises(ValueError):
            AdaptiveController(grow=0.5)


def stage_cycle(manager):
    """Build the canonical two-transaction deadlock."""
    assert manager.lock(1, "R1", LockMode.X).granted
    assert manager.lock(2, "R2", LockMode.X).granted
    assert not manager.lock(1, "R2", LockMode.X).granted
    assert not manager.lock(2, "R1", LockMode.X).granted


class TestAdaptivePolicy:
    def test_manager_pass_tunes_period(self):
        manager = LockManager(policy="adaptive")
        stage_cycle(manager)
        assert manager.policy.current_period(1.0) == 1.0
        result = manager.detect()
        assert result.deadlock_found
        assert manager.policy.current_period(1.0) == 0.5

    def test_clean_passes_grow_period(self):
        manager = LockManager(policy="adaptive")
        manager.policy.current_period(1.0)
        manager.detect()
        manager.detect()
        assert manager.policy.current_period(1.0) == 1.5

    def test_hot_streak_switches_manager_to_continuous(self):
        manager = LockManager(policy="adaptive")
        for _ in range(3):
            stage_cycle(manager)
            assert manager.detect().deadlock_found
            manager.finish(1)
            manager.finish(2)
        assert manager.policy.controller.mode == "continuous"
        # Block-time detection now runs: the staged cycle is resolved
        # the moment the closing request blocks.
        assert manager.lock(1, "R1", LockMode.X).granted
        assert manager.lock(2, "R2", LockMode.X).granted
        assert not manager.lock(1, "R2", LockMode.X).granted
        assert not manager.lock(2, "R1", LockMode.X).granted
        assert manager.last_detection is not None
        assert manager.last_detection.deadlock_found
        assert not manager.deadlocked()

    def test_multi_shard_core_never_switches(self):
        core = ShardedLockCore(shards=4, policy="adaptive")
        assert core.shard_count == 4
        for _ in range(4):
            assert core.lock(1, "R1", LockMode.X).granted
            assert core.lock(2, "R2", LockMode.X).granted
            assert not core.lock(1, "R2", LockMode.X).granted
            assert not core.lock(2, "R1", LockMode.X).granted
            assert core.detect().deadlock_found
            core.finish(1)
            core.finish(2)
        assert core.policy.controller.mode == "periodic"

    def test_describe_surfaces_controller_state(self):
        manager = LockManager(policy="adaptive")
        manager.policy.current_period(1.0)
        info = manager.policy.describe()
        assert info["name"] == "adaptive"
        assert info["mode"] == "periodic"
        assert info["period"] == 1.0
        assert info["passes"] == 0
