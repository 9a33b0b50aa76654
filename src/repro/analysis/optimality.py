"""Near-optimality of greedy victim selection (experiment C4).

Breaking all deadlock cycles with a minimum total abort cost is the
weighted feedback vertex set problem, which the paper notes is NP-hard
[2, 11]; its algorithm therefore resolves each detected cycle greedily
with that cycle's minimum-cost candidate and claims the result is "near
optimal".  This module makes the claim measurable:

* :func:`min_cost_abort_set` — the true optimum by exhaustive search
  over subsets of cycle participants (exponential; fine at experiment
  scale, guarded by ``max_participants``);
* :func:`greedy_abort_cost` — what the paper's detector actually pays on
  a copy of the same state (TDR-2 disabled so both sides pay in aborts);
* :func:`optimality_gap` — their ratio (1.0 = optimal).
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Set, Tuple

from ..baselines.johnson import elementary_circuits
from ..baselines.wfg import adjacency
from ..core.detection import detect_once
from ..core.serialize import table_from_dict, table_to_dict
from ..core.victim import CostTable
from ..lockmgr.lock_table import LockTable


def deadlock_cycles(table: LockTable) -> List[Set[int]]:
    """All elementary wait-for cycles as vertex sets."""
    return [set(c) for c in elementary_circuits(adjacency(table.snapshot()))]


def min_cost_abort_set(
    table: LockTable,
    costs: CostTable,
    max_participants: int = 16,
) -> Tuple[Set[int], float]:
    """The cheapest transaction set whose removal breaks every cycle.

    Exhaustive search over subsets of the cycle participants, smallest
    cardinality first, tracking the best cost.  Raises ``ValueError``
    when the instance exceeds ``max_participants`` (the search is
    exponential by nature — that is the paper's point).
    """
    cycles = deadlock_cycles(table)
    if not cycles:
        return set(), 0.0
    participants = sorted(set().union(*cycles))
    if len(participants) > max_participants:
        raise ValueError(
            "instance has {} participants; exhaustive search capped at "
            "{}".format(len(participants), max_participants)
        )

    best_set: Optional[Set[int]] = None
    best_cost = float("inf")
    cheapest_single = min(costs.cost(tid) for tid in participants)
    for size in range(1, len(participants) + 1):
        if best_set is not None and cheapest_single * size >= best_cost:
            break  # every subset of this size already costs too much
        for subset in combinations(participants, size):
            chosen = set(subset)
            cost = sum(costs.cost(tid) for tid in chosen)
            if cost >= best_cost:
                continue
            if all(cycle & chosen for cycle in cycles):
                best_set, best_cost = chosen, cost
    assert best_set is not None  # cycles exist => some hitting set does
    return best_set, best_cost


def greedy_abort_cost(
    table: LockTable, costs: CostTable
) -> Tuple[List[int], float]:
    """Run the paper's detector (abort-only) on a deep copy of the state
    and price its victims with the same cost table."""
    clone = table_from_dict(table_to_dict(table))
    clone_costs = CostTable(
        {tid: costs.cost(tid) for tid in clone.active_tids()}
    )
    result = detect_once(clone, clone_costs, allow_tdr2=False)
    return result.aborted, sum(costs.cost(tid) for tid in result.aborted)


def optimality_gap(
    table: LockTable, costs: CostTable, max_participants: int = 16
) -> Tuple[float, float, float]:
    """``(greedy_cost, optimal_cost, ratio)`` for one deadlocked state.

    Ratio 1.0 means the greedy selection was optimal; the paper's
    "near optimal" claim predicts ratios close to 1 on typical states.
    """
    _, optimal_cost = min_cost_abort_set(table, costs, max_participants)
    _, greedy_cost = greedy_abort_cost(table, costs)
    if optimal_cost == 0.0:
        return greedy_cost, optimal_cost, 1.0
    return greedy_cost, optimal_cost, greedy_cost / optimal_cost
