"""Victim-cost functions over a caller's transaction record."""

from types import SimpleNamespace

from repro.core import costs as cost_policies


def record(locks_held=0, start_time=0.0, work_done=0.0, restarts=0):
    """The attributes a caller's record carries (the executor's script
    handle, the simulator's terminal)."""
    return SimpleNamespace(
        locks_held=locks_held,
        start_time=start_time,
        work_done=work_done,
        restarts=restarts,
    )


class TestCostPolicies:
    def test_unit(self):
        assert cost_policies.unit_cost(record(), 10.0) == 1.0

    def test_locks_held(self):
        assert cost_policies.locks_held_cost(record(locks_held=4), 0.0) == 5.0

    def test_age(self):
        assert cost_policies.age_cost(record(start_time=2.0), 10.0) == 9.0

    def test_work_done(self):
        assert cost_policies.work_done_cost(record(work_done=7.0), 0.0) == 8.0

    def test_restart_fairness(self):
        assert (
            cost_policies.restart_fairness_cost(record(restarts=3), 0.0) == 8.0
        )

    def test_combine(self):
        policy = cost_policies.combine(
            [cost_policies.unit_cost, cost_policies.locks_held_cost]
        )
        assert policy(record(locks_held=1), 0.0) == 3.0

    def test_simulator_terminal_is_a_record(self):
        from repro.sim.system import Terminal

        terminal = Terminal(index=0, start_time=1.0, work_done=2.0, restarts=1)
        assert cost_policies.work_done_cost(terminal, 0.0) == 3.0
        assert cost_policies.age_cost(terminal, 4.0) == 4.0
        assert cost_policies.restart_fairness_cost(terminal, 0.0) == 2.0
