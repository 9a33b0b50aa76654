"""Agrawal/Carey/DeWitt's "Deadlock Detection is Cheap" (SIGMOD Record
1983), with Chin's 1984 correction — the paper's references [1] and [6].

Their periodic detector exploits the sequential model: every transaction
waits for at most one other transaction, so the wait-for graph is a
*functional* graph and cycle detection is O(n) pointer chasing — no edge
lists at all.  The price of that representation is the paper's central
criticism: when a transaction is blocked by **multiple** holders (a
writer behind several readers), only ONE of them — here the first
conflicting one, their "representative reader" — carries the wait-for
relationship.  A cycle that runs through a non-representative blocker is
invisible until earlier completions happen to rotate the representative,
so detection of some deadlocks is delayed and transactions "may hold
resources or wait for other transactions unnecessarily" (Section 1).

Chin's correction is reflected in two places: victims are removed and the
pass repeats until no cycle remains (a single sweep can miss cycles
created by its own reductions), and the representative is recomputed
from the live lock table at every pass rather than cached.

Experiment X1 measures the resulting extra detection latency against the
H/W-TWBG detector on identical lock-table states.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..core.modes import compatible
from ..core.requests import ResourceState
from ..policy.base import DetectionPolicy
from .wfg import _without, release_victims


def representative_blocker(
    state: ResourceState, tid: int
) -> Optional[int]:
    """The single transaction chosen to represent everything ``tid``
    waits for at this resource — the first conflicting holder in holder-
    list order, else the immediate queue predecessor."""
    queue_position = state.queue_position(tid)
    if queue_position >= 0:
        waiter_mode = state.queue[queue_position].blocked
        for holder in state.holders:
            if not compatible(waiter_mode, holder.granted) or not compatible(
                waiter_mode, holder.blocked
            ):
                return holder.tid
        if queue_position > 0:
            return state.queue[queue_position - 1].tid
        return None
    entry = state.holder_entry(tid)
    if entry is None or not entry.is_blocked:
        return None
    for position, other in enumerate(state.holders):
        if other.tid == tid:
            continue
        if not compatible(other.granted, entry.blocked):
            return other.tid
        if other.is_blocked and position < state.holders.index(entry) and (
            not compatible(other.blocked, entry.blocked)
        ):
            return other.tid
    return None


def functional_graph(states: Iterable[ResourceState]) -> Dict[int, int]:
    """``waits_for[tid] = representative`` for every blocked transaction."""
    waits_for: Dict[int, int] = {}
    for state in states:
        for entry in state.holders:
            if entry.is_blocked:
                rep = representative_blocker(state, entry.tid)
                if rep is not None:
                    waits_for[entry.tid] = rep
        for waiter in state.queue:
            rep = representative_blocker(state, waiter.tid)
            if rep is not None:
                waits_for[waiter.tid] = rep
    return waits_for


def find_cycles(waits_for: Dict[int, int]) -> List[List[int]]:
    """All cycles of a functional graph in O(n) (each vertex has at most
    one outgoing edge, so cycles are disjoint rho-tails)."""
    state: Dict[int, int] = {}  # 0 in progress, 1 done
    cycles: List[List[int]] = []
    for start in sorted(waits_for):
        if start in state:
            continue
        path: List[int] = []
        vertex: Optional[int] = start
        while vertex is not None and vertex not in state:
            state[vertex] = 0
            path.append(vertex)
            vertex = waits_for.get(vertex)
        if vertex is not None and state.get(vertex) == 0:
            cycles.append(path[path.index(vertex):])
        for visited in path:
            state[visited] = 1
    return cycles


class AgrawalPolicy(DetectionPolicy):
    """Periodic single-representative detection with min-cost victims."""

    name = "agrawal"

    def detect(self, host):
        costs = host.costs
        states = host.table.snapshot()
        victims: List[int] = []
        while True:
            cycles = find_cycles(functional_graph(states))
            if not cycles:
                break
            for cycle in cycles:
                victim = min(cycle, key=lambda t: (costs.cost(t), t))
                victims.append(victim)
                states = _without(states, victim)
        result = release_victims(host, victims, len(victims))
        host._absorb_live(result)
        return result
