"""Operator introspection: explain_block, summaries, reports."""

from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.introspect import (
    explain_block,
    render_report,
    wait_graph_summary,
)
from repro.lockmgr.lock_table import LockTable


class TestExplainBlock:
    def test_unblocked(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.S)
        explanation = explain_block(table, 1)
        assert not explanation.blocked
        assert "not blocked" in str(explanation)

    def test_queued_waiter(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.S)
        scheduler.request(table, 3, "R", LockMode.S)
        explanation = explain_block(table, 3)
        assert explanation.blocked
        assert explanation.rid == "R"
        assert not explanation.conversion
        assert explanation.queue_position == 1
        assert explanation.direct_blockers == [1, 2]
        assert not explanation.on_deadlock_cycle

    def test_blocked_conversion(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.IS)
        scheduler.request(table, 2, "R", LockMode.IX)
        scheduler.request(table, 1, "R", LockMode.S)
        explanation = explain_block(table, 1)
        assert explanation.conversion
        assert explanation.mode is LockMode.S
        assert explanation.direct_blockers == [2]
        assert "converting to S" in str(explanation)

    def test_deadlocked_member(self, example_51_table):
        explanation = explain_block(example_51_table, 1)
        assert explanation.on_deadlock_cycle
        assert 1 in explanation.cycle
        assert "DEADLOCKED" in str(explanation)

    def test_waits_lists_single_site(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        scheduler.request(table, 2, "R", LockMode.S)
        explanation = explain_block(table, 2)
        assert len(explanation.waits) == 1
        site = explanation.waits[0]
        assert site.rid == "R"
        assert not site.conversion
        assert site.queue_position == 0
        assert site.direct_blockers == [1]

    def test_double_wait_reports_both_sites(self):
        """A transaction blocked on a conversion while *also* queued at a
        second resource (an index-vs-state inconsistency that Axiom 1
        rules out via the normal APIs) must report both waits.

        The state is assembled by hand: the blocked index knows only the
        conversion site, and a queue entry is planted directly at R2.
        """
        from repro.core.requests import QueueEntry

        table = LockTable()
        # T1 blocked converting at R1 (the indexed site).
        scheduler.request(table, 1, "R1", LockMode.IS)
        scheduler.request(table, 2, "R1", LockMode.IX)
        scheduler.request(table, 1, "R1", LockMode.S)
        # A second wait the index never learns about: T1 queued at R2.
        scheduler.request(table, 3, "R2", LockMode.X)
        table.resource("R2").enqueue(QueueEntry(1, LockMode.S))

        explanation = explain_block(table, 1)
        assert explanation.blocked
        # Primary = the indexed site (the conversion at R1).
        assert explanation.rid == "R1"
        assert explanation.conversion
        assert explanation.mode is LockMode.S
        # Both sites appear, each with its own blockers and position.
        assert [site.rid for site in explanation.waits] == ["R1", "R2"]
        conversion_site, queue_site = explanation.waits
        assert conversion_site.conversion
        assert conversion_site.direct_blockers == [2]
        assert not queue_site.conversion
        assert queue_site.queue_position == 0
        assert queue_site.direct_blockers == [3]
        assert "also waiting at R2" in str(explanation)
        # The ground-truth scan also surfaces the wait in the report.
        assert "T1 is blocked at R1" in render_report(table)

    def test_queue_position_stable_under_tdr2(self):
        """After a TDR-2 repositioning reorders Example 4.1's R1 queue,
        explain_block must report each waiter's *live* position, not the
        arrival order."""
        from repro.core.detection import detect_once
        from repro.core.victim import CostTable
        from tests.conftest import build_example_41_by_requests

        table = build_example_41_by_requests()
        result = detect_once(table, CostTable())
        assert result.abort_free and result.repositions
        state = table.existing("R1")
        for tid in (entry.tid for entry in state.queue):
            explanation = explain_block(table, tid)
            assert explanation.rid == "R1"
            assert explanation.queue_position == state.queue_position(tid)
            assert explanation.queue_position >= 0
        # The repositioned queue puts T9's enabler ahead: positions match
        # the post-TDR-2 order exactly.
        order = [entry.tid for entry in state.queue]
        assert [
            explain_block(table, tid).queue_position for tid in order
        ] == list(range(len(order)))


class TestSummaryAndReport:
    def test_wait_graph_summary(self, example_51_table):
        summary = wait_graph_summary(example_51_table)
        # T1 blocks T2 and T3 (they wait on it): fan-out 1 (edge T1->T2),
        # and T1 itself waits on two holders.
        assert summary[1]["waits_on"] == 2
        assert summary[1]["blocks"] == 1

    def test_render_report_lists_everything(self, example_41_table):
        report = render_report(example_41_table)
        assert "R1(SIX)" in report
        assert "T7 is blocked at R1" in report
        assert "deadlock cycles:" in report
        assert "[3, 6, 7, 8, 9]" in report

    def test_render_report_clean_table(self):
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.S)
        report = render_report(table)
        assert "deadlock cycles: none" in report
