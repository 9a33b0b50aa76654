"""The multiple granularity locking protocol."""

import pytest

from repro.core.errors import ProtocolViolation
from repro.core.modes import LockMode
from repro.lockmgr.sharded import ShardedLockCore
from repro.mgl.hierarchy import ResourceHierarchy
from repro.mgl.protocol import MGLProtocol


def build(auto_intent=True):
    h = ResourceHierarchy()
    h.add_path(["db", "table", "row1"])
    h.add("row2", parent="table")
    core = ShardedLockCore()
    return MGLProtocol(h, core, auto_intent=auto_intent), core


class TestPlan:
    def test_read_plan(self):
        mgl, _ = build()
        assert mgl.plan("row1", LockMode.S) == [
            ("db", LockMode.IS),
            ("table", LockMode.IS),
            ("row1", LockMode.S),
        ]

    def test_write_plan(self):
        mgl, _ = build()
        assert mgl.plan("row1", LockMode.X) == [
            ("db", LockMode.IX),
            ("table", LockMode.IX),
            ("row1", LockMode.X),
        ]

    def test_six_plan(self):
        mgl, _ = build()
        assert mgl.plan("table", LockMode.SIX) == [
            ("db", LockMode.IX),
            ("table", LockMode.SIX),
        ]

    def test_root_plan_has_no_intents(self):
        mgl, _ = build()
        assert mgl.plan("db", LockMode.S) == [("db", LockMode.S)]


class TestAutoIntent:
    def test_acquires_full_path(self):
        mgl, core = build()
        assert mgl.lock(1, "row1", LockMode.X)
        assert core.holding(1) == {
            "db": LockMode.IX,
            "table": LockMode.IX,
            "row1": LockMode.X,
        }

    def test_readers_and_writers_of_different_rows_coexist(self):
        mgl, core = build()
        assert mgl.lock(1, "row1", LockMode.X)
        assert mgl.lock(2, "row2", LockMode.S)
        assert not core.is_blocked(1) and not core.is_blocked(2)

    def test_table_scan_blocks_row_writer(self):
        mgl, core = build()
        assert mgl.lock(1, "table", LockMode.S)
        assert not mgl.lock(2, "row1", LockMode.X)  # IX on table blocks
        assert core.is_blocked(2)
        assert core.blocked_at(2) == "table"

    def test_blocked_mid_path_resumes_after_wake(self):
        mgl, core = build()
        assert mgl.lock(1, "table", LockMode.S)
        assert not mgl.lock(2, "row1", LockMode.X)
        core.finish(1)
        assert not core.is_blocked(2)  # woken holding the table IX
        # Re-issuing the same call resumes and completes the path.
        assert mgl.lock(2, "row1", LockMode.X)
        assert core.holding(2)["row1"] is LockMode.X

    def test_upgrade_path(self):
        # Read a row, then upgrade to write: intents convert IS -> IX.
        mgl, core = build()
        assert mgl.lock(1, "row1", LockMode.S)
        assert mgl.lock(1, "row1", LockMode.X)
        held = core.holding(1)
        assert held["table"] is LockMode.IX
        assert held["row1"] is LockMode.X

    def test_subtree_locks_through_lock(self):
        # S on a node read-locks its whole subtree; X on it is refused
        # to anybody else meanwhile.
        mgl, core = build()
        assert mgl.lock(1, "table", LockMode.S)
        assert core.holding(1)["table"] is LockMode.S
        assert not mgl.lock(2, "table", LockMode.X)


class TestCheckedMode:
    def test_missing_intent_raises(self):
        mgl, _ = build(auto_intent=False)
        with pytest.raises(ProtocolViolation):
            mgl.lock(1, "row1", LockMode.S)

    def test_with_intents_held_passes(self):
        mgl, core = build(auto_intent=False)
        core.lock(1, "db", LockMode.IS)
        core.lock(1, "table", LockMode.IS)
        assert mgl.lock(1, "row1", LockMode.S)

    def test_stronger_intent_accepted(self):
        mgl, core = build(auto_intent=False)
        core.lock(1, "db", LockMode.IX)
        core.lock(1, "table", LockMode.SIX)  # covers IS
        assert mgl.lock(1, "row1", LockMode.S)
