"""The predictive pre-pass: near-cycle scanning and its policy."""

from repro.core.modes import LockMode
from repro.core.notation import load_table
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr import LockManager
from repro.policy import PredictivePolicy, find_near_cycles


def states_of(text):
    return list(load_table(LockTable(), text).resources())


class TestFindNearCycles:
    def test_empty_table(self):
        report = find_near_cycles([])
        assert report == {
            "count": 0, "patterns": [], "truncated": False,
        }

    def test_plain_contention_without_holdings_is_clean(self):
        # T2 waits for T1 but holds nothing: no edge can close a cycle.
        states = states_of(
            "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
        )
        assert find_near_cycles(states)["count"] == 0

    def test_one_edge_short_pattern(self):
        # T2 holds R2 and waits for T1 at R1; unblocked T1 asking for
        # R2 would close the cycle.
        states = states_of(
            "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
            "R2(X): Holder((T2, X, NL)) Queue()\n"
        )
        report = find_near_cycles(states)
        assert report["count"] == 1
        assert not report["truncated"]
        (pattern,) = report["patterns"]
        assert pattern["path"] == [1, 2]
        assert pattern["rids"] == ["R1"]
        assert pattern["close"] == {"tid": 1, "holds": ["R2"]}

    def test_transitive_chain(self):
        # T3 -> T2 -> T1, with T3 holding R3: the three-party pattern.
        states = states_of(
            "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
            "R2(X): Holder((T2, X, NL)) Queue((T3, X))\n"
            "R3(X): Holder((T3, X, NL)) Queue()\n"
        )
        report = find_near_cycles(states)
        paths = sorted(p["path"] for p in report["patterns"])
        assert [1, 2, 3] in paths

    def test_cycle_members_are_not_sources(self):
        # A real deadlock: both vertices are blocked, so neither can be
        # the unblocked source of a near-cycle report.
        states = states_of(
            "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
            "R2(X): Holder((T2, X, NL)) Queue((T1, X))\n"
        )
        assert find_near_cycles(states)["count"] == 0

    def test_report_budget_truncates(self):
        lines = ["R0(X): Holder((T1, X, NL)) Queue({})\n".format(
            " ".join("(T{}, X)".format(tid) for tid in range(2, 30))
        )]
        for tid in range(2, 30):
            lines.append(
                "R{}(X): Holder((T{}, X, NL)) Queue()\n".format(tid, tid)
            )
        report = find_near_cycles(states_of("".join(lines)), max_reports=4)
        assert report["count"] == 28
        assert len(report["patterns"]) == 4
        assert report["truncated"]


class TestPredictivePolicy:
    def test_pre_pass_accumulates_and_drains(self):
        policy = PredictivePolicy()
        states = states_of(
            "R1(X): Holder((T1, X, NL)) Queue((T2, X))\n"
            "R2(X): Holder((T2, X, NL)) Queue()\n"
        )
        policy.pre_pass(states)
        assert policy.last_near_cycles == 1
        assert policy.near_cycles_total == 1
        policy.pre_pass(states)
        assert policy.near_cycles_total == 2
        warnings = policy.take_warnings()
        assert len(warnings) == 2
        assert policy.take_warnings() == []

    def test_clean_pass_reports_nothing(self):
        policy = PredictivePolicy()
        policy.pre_pass([])
        assert policy.take_warnings() == []
        assert policy.describe()["near_cycles_total"] == 0

    def test_manager_detect_runs_the_pre_pass(self):
        manager = LockManager(policy="predict")
        assert manager.lock(1, "R1", LockMode.X).granted
        assert manager.lock(2, "R2", LockMode.X).granted
        assert not manager.lock(2, "R1", LockMode.X).granted
        result = manager.detect()
        assert not result.deadlock_found
        assert manager.policy.last_near_cycles == 1
        # Close the pattern: the predicted deadlock materialises and
        # the same pass machinery resolves it.
        assert not manager.lock(1, "R2", LockMode.X).granted
        result = manager.detect()
        assert result.deadlock_found
        assert not manager.deadlocked()


class TestSparsePrePass:
    """A pass hands the pre-pass the waiting structure plus each
    blocked transaction's held-rid summary; the report must be the one
    a scan of the whole table gives (``count`` and ``close.holds``
    included — idle locks are exactly what the summaries carry)."""

    @staticmethod
    def drive(manager, seed):
        from ..properties.test_sparse_pass_equivalence import operations

        compared = 0
        for index in range(8):
            manager.lock(900 + index, "idle{}".format(index), LockMode.S)
        for op in operations(seed):
            if op[0] == "finish":
                manager.finish(op[1])
            elif op[0] == "lock":
                tid = op[1]
                if manager.was_aborted(tid):
                    manager.finish(tid)
                elif not manager.is_blocked(tid):
                    manager.lock(*op[1:])
            else:
                expected = find_near_cycles(list(manager.table.resources()))
                manager.detect()
                reports = manager.policy.take_warnings()
                if expected["count"]:
                    assert reports == [expected]
                    compared += 1
                else:
                    assert reports == []
        return compared

    def test_report_equals_the_full_table_scan(self):
        from repro.lockmgr.sharded import ShardedLockCore

        builders = [
            lambda: LockManager(policy="predict"),
            lambda: ShardedLockCore(shards=1, policy="predict"),
            lambda: ShardedLockCore(shards=4, policy="predict"),
        ]
        for build in builders:
            compared = sum(self.drive(build(), seed) for seed in range(25))
            assert compared >= 5

    def test_idle_holdings_reach_close_holds(self):
        from repro.lockmgr.sharded import ShardedLockCore

        core = ShardedLockCore(shards=4, policy="predict")
        assert core.lock(1, "R1", LockMode.X).granted
        for rid in ("Z9", "K3", "R2"):
            assert core.lock(2, rid, LockMode.X).granted  # all idle
        assert not core.lock(2, "R1", LockMode.S).granted
        core.detect()
        (report,) = core.policy.take_warnings()
        assert report["count"] == 1
        assert report["patterns"][0]["close"] == {
            "tid": 1, "holds": ["K3", "R2", "Z9"],
        }
