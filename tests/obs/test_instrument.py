"""The Telemetry hub fed by a real LockManager event stream.

Example 4.1 drives the whole instrumented path: blocked requests feed
the per-mode/per-resource counters, the TDR-2 pass feeds the detector
counters and pass-shape histograms, and the release sweep turns
first-block-to-grant intervals into wait-histogram observations.  The
flat pass outcomes (passes, victims, repositionings) are the service's
``ServiceStats`` fields, tested in ``tests/service/test_admin.py``.
"""

from __future__ import annotations

from repro.core.modes import LockMode
from repro.lockmgr import LockManager
from repro.obs import Telemetry


def instrumented_manager(clock=None, **kwargs):
    telemetry = Telemetry(clock=clock, **kwargs)
    manager = LockManager(listener=telemetry.on_event)
    return manager, telemetry


def drive_example_41(manager: LockManager) -> None:
    assert manager.lock(7, "R2", LockMode.IS).granted
    for tid, mode in ((1, LockMode.IX), (2, LockMode.IS),
                      (3, LockMode.IX), (4, LockMode.IS)):
        assert manager.lock(tid, "R1", mode).granted
    for tid, rid, mode in (
        (1, "R1", LockMode.S), (2, "R1", LockMode.S),
        (5, "R1", LockMode.IX), (6, "R1", LockMode.S),
        (7, "R1", LockMode.IX), (8, "R2", LockMode.X),
        (9, "R2", LockMode.IX), (3, "R2", LockMode.S),
        (4, "R2", LockMode.X),
    ):
        assert not manager.lock(tid, rid, mode).granted


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.01
        return self.now


def counter_value(registry, name, labels=None) -> float:
    instrument = registry.get(name, labels)
    return instrument.value if instrument is not None else 0.0


class TestEventStream:
    def test_blocks_feed_counters_and_hot_resources(self):
        manager, telemetry = instrumented_manager()
        drive_example_41(manager)
        registry = telemetry.registry
        # 2 blocked conversions (T1, T2), 7 queue waits.
        assert counter_value(
            registry, "repro_lock_blocks_total", {"kind": "conversion"}
        ) == 2
        assert counter_value(
            registry, "repro_lock_blocks_total", {"kind": "queue"}
        ) == 7
        assert counter_value(
            registry, "repro_resource_blocks_total", {"rid": "R1"}
        ) == 5
        assert counter_value(
            registry, "repro_resource_blocks_total", {"rid": "R2"}
        ) == 4
        assert counter_value(
            registry, "repro_lock_grants_total", {"path": "immediate"}
        ) == 5
        assert telemetry.pending_waits() == [1, 2, 3, 4, 5, 6, 7, 8, 9]

    def test_tdr2_pass_feeds_detector_counters(self):
        manager, telemetry = instrumented_manager()
        drive_example_41(manager)
        result = manager.detect()
        assert result.abort_free
        # The service layer times the pass and reports it; do the same.
        telemetry.detection(result, 0.002)
        registry = telemetry.registry
        assert counter_value(
            registry, "repro_detector_deadlock_passes_total"
        ) == 1
        assert counter_value(registry, "repro_detector_tdr2_total") >= 1
        # Pass-shape histograms observed exactly once.
        pass_hist = registry.get("repro_detector_pass_seconds")
        assert pass_hist.count == 1
        graph_hist = registry.get("repro_detector_graph_transactions")
        assert graph_hist.count == 1
        assert graph_hist.max == result.stats.transactions
        trrp_hist = registry.get("repro_detector_trrps_per_cycle")
        assert trrp_hist.count == len(result.resolutions) >= 1
        assert registry.get("repro_detector_last_cycles").value == \
            result.stats.cycles_found

    def test_wait_histogram_measures_first_block_to_grant(self):
        clock = FakeClock()
        manager, telemetry = instrumented_manager(clock=clock)
        assert manager.lock(1, "R", LockMode.X).granted
        assert not manager.lock(2, "R", LockMode.S).granted
        manager.finish(1)  # grants T2 via the release sweep
        registry = telemetry.registry
        hist = registry.get(
            "repro_lock_wait_seconds", {"mode": "S", "kind": "queue"}
        )
        assert hist is not None and hist.count == 1
        assert hist.min > 0.0
        assert counter_value(
            registry, "repro_lock_grants_total", {"path": "waited"}
        ) == 1
        assert telemetry.pending_waits() == []

    def test_victim_abort_closes_wait(self):
        manager, telemetry = instrumented_manager()
        assert manager.lock(1, "R1", LockMode.S).granted
        assert manager.lock(2, "R2", LockMode.S).granted
        assert not manager.lock(1, "R2", LockMode.X).granted
        assert not manager.lock(2, "R1", LockMode.X).granted
        result = manager.detect()
        assert len(result.aborted) == 1
        victim = result.aborted[0]
        assert victim not in telemetry.pending_waits()


class TestResourceLabelBound:
    """``repro_resource_blocks_total{rid}`` keeps a child per label
    value forever — rendered on every scrape, shipped in every
    ``metrics`` reply — so the set of rids it names must be bounded."""

    def blocked_once_at(self, rids):
        manager, telemetry = instrumented_manager()
        for index, rid in enumerate(rids):
            holder, waiter = 2 * index + 1, 2 * index + 2
            assert manager.lock(holder, rid, LockMode.X).granted
            assert not manager.lock(waiter, rid, LockMode.S).granted
            manager.finish(waiter)
            manager.finish(holder)
        return telemetry.registry

    def test_distinct_rids_past_the_bound_count_as_other(self):
        from repro.obs.instrument import TRACKED_RIDS

        rids = ["R{:05d}".format(index) for index in range(5000)]
        registry = self.blocked_once_at(rids)
        family = registry._families["repro_resource_blocks_total"]
        assert len(family.children) == TRACKED_RIDS + 1
        # The first to block keep their own series; the rest share one.
        assert counter_value(
            registry, "repro_resource_blocks_total", {"rid": rids[0]}
        ) == 1
        assert registry.get(
            "repro_resource_blocks_total", {"rid": rids[-1]}
        ) is None
        assert counter_value(
            registry, "repro_resource_blocks_total", {"rid": "other"}
        ) == 5000 - TRACKED_RIDS
        assert counter_value(
            registry, "repro_lock_blocks_total", {"kind": "queue"}
        ) == 5000

    def test_exposition_stops_growing_with_the_rid_space(self):
        few = self.blocked_once_at(["R{}".format(i) for i in range(1000)])
        many = self.blocked_once_at(["R{}".format(i) for i in range(3000)])
        assert len(many.render()) < 1.05 * len(few.render())

    def test_a_tracked_rid_keeps_counting_after_the_bound(self):
        from repro.obs.instrument import TRACKED_RIDS

        rids = ["R{}".format(index) for index in range(TRACKED_RIDS + 10)]
        registry = self.blocked_once_at(rids + ["R0", "R0"])
        assert counter_value(
            registry, "repro_resource_blocks_total", {"rid": "R0"}
        ) == 3

    def test_top_still_names_the_hottest_resources(self):
        from repro.obs.top import Sample

        registry = self.blocked_once_at(["R1", "R2", "R1", "R1"])
        sample = Sample(0.0, registry.snapshot(), {}, {})
        assert sample.hottest_resources()[:2] == [("R1", 3.0), ("R2", 1.0)]


class TestDisabled:
    def test_disabled_hooks_record_nothing(self):
        telemetry = Telemetry(enabled=False)
        manager = LockManager(listener=telemetry.on_event)
        assert manager.lock(1, "R", LockMode.X).granted
        assert not manager.lock(2, "R", LockMode.S).granted
        telemetry.request(3, "R", LockMode.S)
        telemetry.wait_timeout(2)
        telemetry.finish(1)
        telemetry.detection(manager.detect(), 0.001)
        assert telemetry.registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": [],
        }
        assert telemetry.trace.total_started == 0

    def test_disabled_registry_still_usable_directly(self):
        # ServiceStats keeps counting through the same registry even
        # when the event-stream hooks are off.
        telemetry = Telemetry(enabled=False)
        telemetry.registry.counter("repro_service_grants_total").inc()
        assert (
            telemetry.registry.get("repro_service_grants_total").value == 1
        )
