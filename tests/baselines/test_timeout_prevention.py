"""Timeout resolution and wound-wait / wait-die prevention."""

from repro.baselines.lanes import TimeoutPolicy
from repro.baselines.prevention import WaitDiePolicy, WoundWaitPolicy
from repro.core.modes import LockMode
from repro.lockmgr.lock_table import LockTable
from repro.sim.system import SimulatedSystem
from repro.sim.workload import Access, Program, WorkloadSpec

X = LockMode.X

from .host import hosted


class Script:
    """A workload generator replaying fixed programs: every terminal
    starts at time 0, and nobody thinks or restarts afterwards."""

    def __init__(self, *programs):
        self._programs = list(programs)

    def next_program(self):
        return self._programs.pop(0)

    def think_time(self):
        return 0.0 if self._programs else 1e9

    def restart_delay(self):
        return 1e9


def holder_and_waiter(timeout, hold):
    """T1 takes R for ``hold`` time units; T2 asks for R at time 0 and
    waits — a plain wait, no cycle."""
    system = SimulatedSystem(
        WorkloadSpec(), TimeoutPolicy(timeout), terminals=2, period=None
    )
    system.generator = Script(
        Program([Access("R", LockMode.X, hold)]),
        Program([Access("R", LockMode.X, 1.0)]),
    )
    return system


class TestTimeout:
    def test_no_abort_before_deadline(self):
        metrics = holder_and_waiter(10.0, hold=100.0).run(9.9)
        assert metrics.block_events == 1
        assert metrics.timeout_aborts == 0

    def test_abort_after_deadline(self):
        system = holder_and_waiter(10.0, hold=100.0)
        metrics = system.run(10.0)
        assert metrics.timeout_aborts == 1
        assert system.terminals[1].state == "aborted"

    def test_false_positive_on_slow_waiter(self):
        """A waiter that is NOT deadlocked still dies — the failure mode
        the comparative benchmarks quantify."""
        metrics = holder_and_waiter(5.0, hold=100.0).run(6.0)
        assert metrics.deadlock_episodes == 0
        assert metrics.timeout_aborts == 1

    def test_grant_stops_clock(self):
        metrics = holder_and_waiter(5.0, hold=3.0).run(50.0)
        assert metrics.timeout_aborts == 0
        assert metrics.commits == 2

    def test_implicit_unblock_noticed(self):
        """A wait ended by another waiter's timeout, not by a commit,
        stops the clock too."""
        system = SimulatedSystem(
            WorkloadSpec(), TimeoutPolicy(5.0), terminals=3, period=None
        )
        system.generator = Script(
            Program([Access("A", LockMode.X, 100.0)]),
            # T2 takes B, then waits at A from 0.1 and times out at 6.
            Program([Access("B", LockMode.X, 0.1), Access("A", X, 1.0)]),
            # T3 waits at B from 3; T2's abort grants it B at 6.
            Program([Access("C", LockMode.X, 3.0), Access("B", X, 1.0)]),
        )
        metrics = system.run(50.0)
        assert metrics.timeout_aborts == 1
        assert metrics.commits == 1  # T3's clock stopped at 6

    def test_name_includes_value(self):
        policy = TimeoutPolicy(7.5)
        assert policy.name == "timeout(7.5)"
        assert policy.wait_limit == 7.5
        assert not policy.wants_periodic


class TestWaitDie:
    def test_older_requester_waits(self):
        policy = WaitDiePolicy()
        policy._stamp(1)  # older
        policy._stamp(2)  # younger
        assert policy.veto(1, [2]) == []

    def test_younger_requester_dies(self):
        policy = WaitDiePolicy()
        policy._stamp(1)
        policy._stamp(2)
        assert policy.veto(2, [1]) == [2]

    def test_mixed_holders_die_on_any_older(self):
        policy = WaitDiePolicy()
        for tid in (1, 2, 3):
            policy._stamp(tid)
        # Requester 2 vs holders {1 (older), 3 (younger)}: dies.
        assert policy.veto(2, [1, 3]) == [2]


class TestWoundWait:
    def test_older_wounds_younger_holders(self):
        policy = WoundWaitPolicy()
        policy._stamp(1)
        policy._stamp(2)
        policy._stamp(3)
        assert policy.veto(1, [2, 3]) == [2, 3]

    def test_younger_waits(self):
        policy = WoundWaitPolicy()
        policy._stamp(1)
        policy._stamp(2)
        assert policy.veto(2, [1]) == []

    def test_only_younger_holders_wounded(self):
        policy = WoundWaitPolicy()
        for tid in (1, 2, 3):
            policy._stamp(tid)
        assert policy.veto(2, [1, 3]) == [3]

    def test_forget_clears_stamp(self):
        """The tick drops the stamps of transactions no longer in the
        table (finished, under strict 2PL)."""
        policy = WoundWaitPolicy()
        policy._stamp(1)
        assert policy.on_tick(hosted(LockTable(), policy)) is None
        policy._stamp(2)
        # Re-stamped 1 is now *younger* than 2.
        assert policy._stamp(1) > policy._stamp(2)

    def test_wound_releases_the_holder(self):
        policy = WoundWaitPolicy()
        core = hosted(LockTable(), policy)
        policy._stamp(1)  # older
        assert core.lock(2, "R", LockMode.X).granted
        assert not core.lock(1, "R", LockMode.X).granted
        result = core.last_detection
        assert result.aborted == [2]
        assert result.abort_reason != "deadlock victim"
        assert [event.tid for event in result.grants] == [1]
        assert core.holding(1) == {"R": LockMode.X}
