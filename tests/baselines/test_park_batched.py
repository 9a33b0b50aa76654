"""The batched Park lane."""

from repro.baselines import BatchedPolicy
from repro.baselines.wfg import has_deadlock
from repro.core.modes import LockMode
from repro.lockmgr.sharded import ShardedLockCore


def build_cycle(core):
    core.lock(1, "A", LockMode.X)
    core.lock(2, "B", LockMode.X)
    core.lock(1, "B", LockMode.X)
    first = core.last_detection
    core.lock(2, "A", LockMode.X)
    return first, core.last_detection


class TestBatchedStrategy:
    def test_resolves_at_threshold(self):
        core = ShardedLockCore(policy=BatchedPolicy(batch_size=2))
        first, second = build_cycle(core)
        assert first is None
        assert second.aborted
        assert not has_deadlock(core.table)

    def test_periodic_fallback_flush(self):
        core = ShardedLockCore(policy=BatchedPolicy(batch_size=100))
        build_cycle(core)
        assert has_deadlock(core.table)  # batch not full yet
        result = core.detect()
        assert result.aborted
        assert core.was_aborted(result.aborted[0])
        assert not has_deadlock(core.table)

    def test_empty_periodic_is_noop(self):
        core = ShardedLockCore(policy=BatchedPolicy())
        result = core.detect()
        assert not result.aborted and not result.repositions
        assert core.policy.flushes == 0

    def test_name_includes_batch_size(self):
        assert BatchedPolicy(7).name == "park-batched(7)"


class TestMetricsPercentiles:
    def test_percentiles(self):
        from repro.sim.metrics import Metrics

        metrics = Metrics(response_times=[1.0, 2.0, 3.0, 4.0, 100.0])
        assert metrics.response_percentile(0.0) == 1.0
        assert metrics.response_percentile(0.5) == 3.0
        assert metrics.p95_response_time == 100.0
        assert metrics.max_response_time == 100.0

    def test_empty(self):
        from repro.sim.metrics import Metrics

        assert Metrics().p95_response_time == 0.0
        assert Metrics().max_response_time == 0.0

    def test_bad_fraction(self):
        import pytest

        from repro.sim.metrics import Metrics

        with pytest.raises(ValueError):
            Metrics(response_times=[1.0]).response_percentile(1.5)

    def test_nearest_rank_at_integral_ranks(self):
        """p·n integral: the rank is p·n itself, not one above it."""
        from repro.sim.metrics import Metrics

        twenty = Metrics(response_times=[float(v) for v in range(1, 21)])
        assert twenty.p95_response_time == 19.0  # not the maximum
        assert twenty.response_percentile(0.5) == 10.0
        assert twenty.response_percentile(1.0) == 20.0
        hundred = Metrics(
            response_times=[float(v) for v in range(100, 0, -1)]
        )
        assert hundred.p95_response_time == 95.0
        assert hundred.response_percentile(0.01) == 1.0
        assert hundred.response_percentile(0.07) == 7.0
        assert hundred.response_percentile(0.0) == 1.0

    def test_summary_includes_p95(self):
        from repro.sim.metrics import Metrics

        summary = Metrics(duration=1.0, response_times=[2.0]).summary()
        assert summary["p95_response"] == 2.0
