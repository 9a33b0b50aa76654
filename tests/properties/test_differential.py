"""Differential testing across all detection drivers.

The periodic walk, the continuous rooted walk, the batched rooted walk
and the wait-for-graph baseline embody different traversal orders and
victim opportunities, but they must agree on the contract: starting from
the same state, each leaves the system deadlock-free with every
structural invariant intact — and none of them ever acts on a
deadlock-free state.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.baselines import BatchedPolicy
from repro.baselines.wfg import has_deadlock, resolve
from repro.core.detection import detect_once
from repro.core.serialize import table_from_dict, table_to_dict
from repro.core.verify import verify_table
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from tests.baselines.host import hosted
from tests.properties.test_invariants import apply_ops, ops_strategy

relaxed = settings(max_examples=80)


def clone(table):
    return table_from_dict(table_to_dict(table))


def run_periodic(table):
    detect_once(table, CostTable())
    return table


def run_continuous(table):
    costs = CostTable()
    # Continuous detection normally fires per block; replay it for every
    # currently blocked transaction, which covers every cycle.
    for tid in sorted(table.blocked_tids()):
        detect_once(table, costs, roots=[tid])
    return table


def run_batched(table):
    # The lane runs on a lock core: it detects on a copy of ``table``.
    core = hosted(table, BatchedPolicy(batch_size=None))
    for tid in sorted(core.table.blocked_tids()):
        core.policy.on_block(core, tid, core.blocked_at(tid), None)
    core.detect()
    return core.table


def run_wfg(table):
    for tid in resolve(table.snapshot(), CostTable()):
        scheduler.release_all(table, tid)
    return table


DRIVERS = {
    "periodic": run_periodic,
    "continuous": run_continuous,
    "batched": run_batched,
    "wfg": run_wfg,
}


class TestAllDriversAgreeOnTheContract:
    @given(ops=ops_strategy)
    @relaxed
    def test_every_driver_clears_deadlock(self, ops):
        base = apply_ops(ops)
        for name, driver in DRIVERS.items():
            branch = driver(clone(base))
            assert not has_deadlock(branch), name
            assert verify_table(branch) == [], name

    @given(ops=ops_strategy)
    @relaxed
    def test_no_driver_touches_clean_states(self, ops):
        base = apply_ops(ops)
        if has_deadlock(base):
            return
        rendering = str(base)
        for name, driver in DRIVERS.items():
            assert str(driver(clone(base))) == rendering, name
