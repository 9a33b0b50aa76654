"""Lock escalation over MGL."""

import pytest

from repro.core.modes import LockMode
from repro.lockmgr.sharded import ShardedLockCore
from repro.mgl.escalation import EscalatingMGL
from repro.mgl.hierarchy import ResourceHierarchy


def build(threshold=3, rows=12):
    hierarchy = ResourceHierarchy()
    hierarchy.add("db")
    hierarchy.add("t", parent="db")
    for index in range(rows):
        hierarchy.add("r{}".format(index), parent="t")
    core = ShardedLockCore()
    return EscalatingMGL(hierarchy, core, threshold=threshold), core


class TestEscalation:
    def test_reader_escalates_to_table_s(self):
        mgl, core = build(threshold=3)
        for index in range(4):
            assert mgl.lock(1, "r{}".format(index), LockMode.S)
        assert core.holding(1)["t"] is LockMode.S
        assert mgl.stats.granted == 1

    def test_writer_escalates_to_table_x(self):
        mgl, core = build(threshold=2)
        for index in range(3):
            assert mgl.lock(1, "r{}".format(index), LockMode.X)
        assert core.holding(1)["t"] is LockMode.X

    def test_below_threshold_no_escalation(self):
        mgl, core = build(threshold=10)
        for index in range(5):
            mgl.lock(1, "r{}".format(index), LockMode.S)
        assert core.holding(1)["t"] is LockMode.IS
        assert mgl.stats.attempts == 0

    def test_covered_requests_after_escalation_are_free(self):
        mgl, core = build(threshold=2)
        for index in range(3):
            mgl.lock(1, "r{}".format(index), LockMode.S)
        locks_before = len(core.holding(1))
        assert mgl.lock(1, "r9", LockMode.S)  # covered by table S
        assert len(core.holding(1)) == locks_before

    def test_mixed_modes_escalate_to_x(self):
        mgl, core = build(threshold=3)
        mgl.lock(1, "r0", LockMode.S)
        mgl.lock(1, "r1", LockMode.X)
        mgl.lock(1, "r2", LockMode.S)
        mgl.lock(1, "r3", LockMode.S)  # triggers escalation
        assert core.holding(1)["t"] is LockMode.X

    def test_escalation_blocks_on_other_reader(self):
        mgl, core = build(threshold=2)
        writer, reader = 1, 2
        assert mgl.lock(reader, "r9", LockMode.S)
        for index in range(2):
            assert mgl.lock(writer, "r{}".format(index), LockMode.X)
        # Third write crosses the threshold; the X escalation conflicts
        # with the reader's IS... IS is compatible with X? No: Comp(IS, X)
        # is false, so the conversion blocks.
        assert not mgl.lock(writer, "r2", LockMode.X)
        assert core.is_blocked(writer)
        assert mgl.stats.blocked == 1
        # Reader commits; writer resumes by re-calling lock().
        core.finish(reader)
        assert not core.is_blocked(writer)
        assert mgl.lock(writer, "r2", LockMode.X)
        assert core.holding(writer)["t"] is LockMode.X

    def test_dueling_escalations_deadlock_and_resolve(self):
        """Two readers escalate to S... then upgrade to X via new writes:
        a conversion deadlock on the table lock, resolved by detection."""
        mgl, core = build(threshold=2)
        a, b = 1, 2
        mgl.lock(a, "r0", LockMode.S)
        mgl.lock(a, "r1", LockMode.S)
        mgl.lock(a, "r2", LockMode.S)  # a escalates to table S
        mgl.lock(b, "r3", LockMode.S)
        mgl.lock(b, "r4", LockMode.S)
        mgl.lock(b, "r5", LockMode.S)  # b escalates to table S
        # Both now write a fresh row: covered check fails (S does not
        # cover X), so each converts its table S toward SIX (S + IX
        # intent) on the MGL path — two incompatible conversions, the
        # Observation-3.1(3) deadlock.
        assert not mgl.lock(a, "r6", LockMode.X)
        assert not mgl.lock(b, "r7", LockMode.X)
        assert core.deadlocked()
        result = core.detect()
        assert len(result.aborted) == 1
        survivor = a if core.was_aborted(b) else b
        assert core.holding(survivor)["t"] is LockMode.SIX

    def test_forget_clears_bookkeeping(self):
        mgl, core = build(threshold=2)
        mgl.lock(1, "r0", LockMode.S)
        mgl.lock(1, "r1", LockMode.S)
        mgl.lock(1, "r2", LockMode.S)
        core.finish(1)
        mgl.forget(1)
        assert not mgl._escalated
        assert not mgl._child_counts

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            build(threshold=0)
