"""Victim-cost functions (Section 5's cost-table metrics).

The paper: "There can be several criteria for deciding a cost of each
transaction, for example, number of locks it holds, starting time of it,
the amount of CPU and I/O time which has been consumed and so on.  We
assume that the cost of each transaction is determined by some
combination of the above metrics."

Each function maps a caller's record of one transaction (plus the
current time) to a non-negative float.  The record is whatever the
caller keeps — the executor's script handle, the simulator's terminal —
and a function reads only the attributes it names: ``locks_held``,
``start_time``, ``work_done`` or ``restarts``.  The caller writes the
result into the detector's :class:`~repro.core.victim.CostTable` before
a pass; TDR-2 delay penalties the table accumulated are kept by never
pricing below the current entry (``max(base, current)``).

Not re-exported by :mod:`repro.core`: the lock service keeps the cost
table's unit default and never imports this module.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

#: A cost function: ``cost(record, now) -> float``.
CostPolicy = Callable[[Any, float], float]


def unit_cost(txn: Any, now: float) -> float:
    """Every abort costs the same — victim selection degenerates to
    tie-breaking (prefer TDR-2, then smaller tid)."""
    return 1.0


def locks_held_cost(txn: Any, now: float) -> float:
    """Cost = number of locks currently held (+1 so empty transactions
    are not free).  Aborts the transaction with least acquired state."""
    return float(txn.locks_held) + 1.0


def age_cost(txn: Any, now: float) -> float:
    """Cost = time since the transaction started (+1).  Approximates the
    work that would be wasted by an abort; favors wounding the young."""
    return max(now - txn.start_time, 0.0) + 1.0


def work_done_cost(txn: Any, now: float) -> float:
    """Cost = accumulated CPU/IO work units (+1)."""
    return txn.work_done + 1.0


def restart_fairness_cost(txn: Any, now: float) -> float:
    """Cost grows exponentially with the restart count, protecting
    repeatedly aborted transactions from starvation (live-lock guard for
    TDR-1, analogous to the TDR-2 delay penalty)."""
    return float(2 ** min(txn.restarts, 20))


def combine(policies: Sequence[CostPolicy]) -> CostPolicy:
    """The paper's "some combination of the above metrics": a summed
    composite of several policies."""

    def combined(txn: Any, now: float) -> float:
        return sum(policy(txn, now) for policy in policies)

    return combined


#: A sensible production default: locks held + work done + restart guard.
default_cost = combine(
    [locks_held_cost, work_done_cost, restart_fairness_cost]
)
