"""Service counters and remote-introspection payloads."""

import json

from repro.core.modes import LockMode
from repro.lockmgr import LockManager
from repro.service.admin import (
    ServiceStats,
    dump_payload,
    graph_payload,
    inspect_payload,
    log_payload,
    render_stats,
)


def deadlocked_manager() -> LockManager:
    """Two transactions in the classic two-resource embrace."""
    manager = LockManager()
    assert manager.lock(1, "R1", LockMode.S).granted
    assert manager.lock(2, "R2", LockMode.S).granted
    assert not manager.lock(1, "R2", LockMode.X).granted
    assert not manager.lock(2, "R1", LockMode.X).granted
    return manager


def example_41_manager() -> LockManager:
    """Example 4.1's state reached through real manager requests."""
    manager = LockManager()
    assert manager.lock(7, "R2", LockMode.IS).granted
    assert manager.lock(1, "R1", LockMode.IX).granted
    assert manager.lock(2, "R1", LockMode.IS).granted
    assert manager.lock(3, "R1", LockMode.IX).granted
    assert manager.lock(4, "R1", LockMode.IS).granted
    assert not manager.lock(1, "R1", LockMode.S).granted
    assert not manager.lock(2, "R1", LockMode.S).granted
    assert not manager.lock(5, "R1", LockMode.IX).granted
    assert not manager.lock(6, "R1", LockMode.S).granted
    assert not manager.lock(7, "R1", LockMode.IX).granted
    assert not manager.lock(8, "R2", LockMode.X).granted
    assert not manager.lock(9, "R2", LockMode.IX).granted
    assert not manager.lock(3, "R2", LockMode.S).granted
    assert not manager.lock(4, "R2", LockMode.X).granted
    return manager


class TestServiceStats:
    def test_as_dict_lists_every_counter(self):
        stats = ServiceStats(grants=3, lease_expiries=1)
        data = stats.as_dict()
        assert data["grants"] == 3
        assert data["lease_expiries"] == 1
        assert data["requests"] == 0
        assert len(data) == len(ServiceStats.FIELDS) == 29

    def test_absorb_detection(self):
        manager = deadlocked_manager()
        stats = ServiceStats()
        stats.absorb_detection(manager.detect())
        assert stats.detector_passes == 1
        assert stats.deadlocks_resolved == 1
        assert stats.victims_aborted == 1
        assert stats.abort_free_resolutions == 0

    def test_absorb_detection_counts_repositions(self):
        # Example 4.1 resolves abort-free via TDR-2 repositioning, so
        # the reposition counters move while the victim counter stays 0.
        manager = example_41_manager()
        result = manager.detect()
        stats = ServiceStats()
        stats.absorb_detection(result)
        assert stats.abort_free_resolutions == 1
        assert stats.queue_repositionings == len(result.repositions) >= 1
        assert stats.requests_repositioned == sum(
            len(event.delayed) for event in result.repositions
        ) >= 1
        assert stats.victims_aborted == 0

    def test_unknown_field_rejected(self):
        import pytest

        with pytest.raises(TypeError):
            ServiceStats(no_such_counter=1)

    def test_counters_mirror_into_registry(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.service.admin import stat_metric_name

        registry = MetricsRegistry()
        stats = ServiceStats(registry=registry)
        stats.grants += 5
        stats.requests_repositioned += 2
        exposition = registry.render()
        assert "repro_service_grants_total 5" in exposition
        assert registry.get(stat_metric_name("grants")).value == 5
        assert (
            registry.get(stat_metric_name("requests_repositioned")).value
            == 2
        )

    def test_render_stats_aligned(self):
        text = render_stats(ServiceStats(commits=7).as_dict())
        lines = text.splitlines()
        assert len(lines) == 29
        assert "commits" in text
        # every separator sits in the same column
        assert len({line.index(":") for line in lines}) == 1


class TestPayloads:
    def test_inspect_payload(self):
        payload = inspect_payload(deadlocked_manager())
        assert payload["resources"] == 2
        assert payload["blocked"] == [1, 2]
        assert "DEADLOCKED" in payload["report"]

    def test_graph_payload(self):
        payload = graph_payload(deadlocked_manager())
        edges = {
            (edge["source"], edge["target"]) for edge in payload["edges"]
        }
        assert (1, 2) in edges and (2, 1) in edges
        assert payload["cycles"] == [[1, 2]]
        assert "dot" not in payload

    def test_graph_payload_dot(self):
        payload = graph_payload(deadlocked_manager(), dot=True)
        assert payload["dot"].startswith("digraph")

    def test_dump_payload_versioned_and_json_ready(self):
        payload = dump_payload(deadlocked_manager())
        assert payload["table"]["v"] == 1
        rids = {r["rid"] for r in payload["table"]["resources"]}
        assert rids == {"R1", "R2"}
        json.dumps(payload)  # must survive the wire
        assert "R1" in payload["text"]

    def test_log_payload_limit(self):
        manager = deadlocked_manager()
        full = log_payload(manager, limit=0)
        tail = log_payload(manager, limit=2)
        assert full["total"] == len(full["events"]) == 4
        assert tail["total"] == 4
        assert len(tail["events"]) == 2
        assert tail["events"] == full["events"][-2:]
