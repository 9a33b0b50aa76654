"""Incremental H/W-TWBG maintenance — equivalence with full rebuilds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hw_twbg import build_graph
from repro.core.incremental import IncrementalHWTWBG
from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.manager import LockManager
from tests.properties.test_invariants import MODES, ops_strategy


def edge_multiset(graph):
    return sorted(
        (e.source, e.target, e.label, e.rid) for e in graph.edges
    )


class TestManualRefresh:
    def test_tracks_single_resource(self):
        table = LockTable()
        tracker = IncrementalHWTWBG(table)
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.S)
        tracker.refresh("R")
        assert edge_multiset(tracker.graph()) == edge_multiset(
            build_graph(table.snapshot())
        )

    def test_dropped_resource_forgotten(self):
        table = LockTable()
        tracker = IncrementalHWTWBG(table)
        scheduler.request(table, 1, "R", LockMode.X)
        tracker.refresh("R")
        scheduler.release_all(table, 1)
        tracker.refresh("R")
        assert "R" not in tracker
        assert tracker.graph().edges == []

    def test_refresh_many(self, example_41_table):
        tracker = IncrementalHWTWBG(example_41_table)
        scheduler.reposition_queue(example_41_table, "R2", [9, 3], [8])
        tracker.refresh_many(["R2", "R1"])
        assert edge_multiset(tracker.graph()) == edge_multiset(
            build_graph(example_41_table.snapshot())
        )

    def test_edges_of(self, example_41_table):
        tracker = IncrementalHWTWBG(example_41_table)
        assert len(tracker.edges_of("R2")) == 4  # T7->T8 H + 3 W edges
        assert tracker.resource_count == 2


class TestEquivalenceProperty:
    @given(ops=ops_strategy)
    @settings(max_examples=80)
    def test_incremental_equals_rebuild(self, ops):
        """Apply random operations, refreshing only touched resources;
        the tracker must stay bit-identical to a full rebuild."""
        table = LockTable()
        tracker = IncrementalHWTWBG(table)
        for kind, tid, rid_index, mode_index in ops:
            tid = tid + 1
            if kind >= 4:
                affected = table.held_by(tid)
                blocked = table.blocked_at(tid)
                if blocked is not None:
                    affected.add(blocked)
                scheduler.release_all(table, tid)
                tracker.refresh_many(affected)
                continue
            if table.is_blocked(tid):
                continue
            rid = "R{}".format(rid_index)
            mode = MODES[mode_index % len(MODES)]
            scheduler.request(table, tid, rid, mode)
            tracker.refresh(rid)
        assert edge_multiset(tracker.graph()) == edge_multiset(
            build_graph(table.snapshot())
        )


class TestManagerIntegration:
    def test_tracked_graph_matches_rebuild(self):
        lm = LockManager(track_graph=True)
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "B", LockMode.X)
        lm.lock(1, "B", LockMode.X)
        lm.lock(2, "A", LockMode.X)
        assert edge_multiset(lm.graph()) == edge_multiset(
            build_graph(lm.table.snapshot())
        )
        assert lm.deadlocked()

    def test_tracked_after_finish(self):
        lm = LockManager(track_graph=True)
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "A", LockMode.S)
        lm.finish(1)
        assert edge_multiset(lm.graph()) == edge_multiset(
            build_graph(lm.table.snapshot())
        )

    def test_tracked_after_detect(self):
        lm = LockManager(track_graph=True)
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "B", LockMode.X)
        lm.lock(1, "B", LockMode.X)
        lm.lock(2, "A", LockMode.X)
        lm.detect()
        assert not lm.graph().has_cycle()
        assert edge_multiset(lm.graph()) == edge_multiset(
            build_graph(lm.table.snapshot())
        )

    def test_tracked_continuous_mode(self):
        lm = LockManager(policy="continuous", track_graph=True)
        lm.lock(1, "A", LockMode.X)
        lm.lock(2, "B", LockMode.X)
        lm.lock(1, "B", LockMode.X)
        lm.lock(2, "A", LockMode.X)  # resolved inline
        assert edge_multiset(lm.graph()) == edge_multiset(
            build_graph(lm.table.snapshot())
        )

    @given(ops=ops_strategy, flags=st.booleans())
    @settings(max_examples=50)
    def test_manager_tracking_property(self, ops, flags):
        lm = LockManager(
            policy="continuous" if flags else "periodic", track_graph=True
        )
        for kind, tid, rid_index, mode_index in ops:
            tid = tid + 1
            if kind >= 4:
                lm.finish(tid)
                continue
            if lm.table.is_blocked(tid) or lm.was_aborted(tid):
                continue
            lm.lock(
                tid,
                "R{}".format(rid_index),
                MODES[mode_index % len(MODES)],
            )
        assert edge_multiset(lm.graph()) == edge_multiset(
            build_graph(lm.table.snapshot())
        )
