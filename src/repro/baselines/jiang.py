"""Jiang's "Deadlock Detection is Really Cheap" (SIGMOD Record 1988) —
the paper's reference [14].

Jiang fixed Agrawal's single-representative blind spot by letting every
blocked transaction keep *all* its wait-for edges, stored as an
``(n+1) x n`` boolean matrix, and made detection **continuous**: when a
transaction blocks, its new edges are added and a cycle through it is
looked for in O(e) time.  The paper's two criticisms, both visible in
this implementation and measured in experiment X4:

* the scheme is "restricted to the continuous case" — the matrix is
  maintained edge by edge as blocks happen; there is no cheap periodic
  batch variant;
* listing *all* participators of every cycle (his victim-analysis step)
  costs up to ``O(3^{n/3})`` because a deadlock may be involved in
  exponentially many cycles.  :func:`list_all_cycles_through` implements
  that enumeration so the blow-up can be measured; the policy itself
  uses the cheap participant set (vertices on some cycle through the
  blocked transaction) for victim choice.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..core.modes import compatible
from ..core.requests import ResourceState
from ..lockmgr.lock_table import LockTable
from ..policy.base import DetectionPolicy
from .wfg import adjacency, release_victims


class WaitForMatrix:
    """Jiang's boolean wait-for matrix with incremental edge insertion.

    Row ``t`` stores which transactions ``t`` waits for, directly or
    transitively (his matrix keeps the transitive closure current so a
    deadlock test is a single bit lookup).
    """

    def __init__(self) -> None:
        self._direct: Dict[int, Set[int]] = {}
        self._closure: Dict[int, Set[int]] = {}

    def add_edges(self, waiter: int, blockers: Iterable[int]) -> None:
        """Insert ``waiter -> blocker`` edges and refresh the closure
        rows that can reach the waiter (O(n*e) worst case, O(e) typical:
        the closure of the waiter plus a propagation sweep)."""
        direct = self._direct.setdefault(waiter, set())
        fresh = {b for b in blockers if b != waiter and b not in direct}
        if not fresh:
            return
        direct.update(fresh)
        self._rebuild_closure()

    def remove_transaction(self, tid: int) -> None:
        self._direct.pop(tid, None)
        for targets in self._direct.values():
            targets.discard(tid)
        self._rebuild_closure()

    def _rebuild_closure(self) -> None:
        # Straightforward reachability per vertex; the matrix sizes in
        # the experiments are small enough that asymptotic subtlety in
        # Jiang's incremental update would only obscure the comparison.
        self._closure = {}
        for start in self._direct:
            seen: Set[int] = set()
            stack = list(self._direct.get(start, ()))
            while stack:
                vertex = stack.pop()
                if vertex in seen:
                    continue
                seen.add(vertex)
                stack.extend(self._direct.get(vertex, ()))
            self._closure[start] = seen

    def waits_for(self, waiter: int, holder: int) -> bool:
        """Transitive wait test (a closure-matrix bit lookup)."""
        return holder in self._closure.get(waiter, ())

    def deadlocked(self, tid: int) -> bool:
        """True when ``tid`` transitively waits for itself."""
        return self.waits_for(tid, tid)

    def participants(self, tid: int) -> Set[int]:
        """Every transaction on some cycle through ``tid``: vertices that
        ``tid`` reaches and that reach ``tid``."""
        if not self.deadlocked(tid):
            return set()
        reach = self._closure.get(tid, set())
        return {tid} | {
            v for v in reach if tid in self._closure.get(v, set())
        }

    def direct_edges(self) -> Dict[int, Set[int]]:
        return {t: set(b) for t, b in self._direct.items()}


def direct_blockers(state: ResourceState, tid: int) -> Set[int]:
    """All transactions directly blocking ``tid`` at this resource."""
    blockers: Set[int] = set()
    position = state.queue_position(tid)
    if position >= 0:
        mode = state.queue[position].blocked
        for holder in state.holders:
            if not compatible(mode, holder.granted) or not compatible(
                mode, holder.blocked
            ):
                blockers.add(holder.tid)
        if position > 0:
            blockers.add(state.queue[position - 1].tid)
        return blockers
    entry = state.holder_entry(tid)
    if entry is None or not entry.is_blocked:
        return blockers
    my_position = state.holders.index(entry)
    for other_position, other in enumerate(state.holders):
        if other.tid == tid:
            continue
        if not compatible(other.granted, entry.blocked):
            blockers.add(other.tid)
        elif (
            other_position < my_position
            and other.is_blocked
            and not compatible(other.blocked, entry.blocked)
        ):
            blockers.add(other.tid)
    return blockers


def list_all_cycles_through(
    table: LockTable, tid: int
) -> List[List[int]]:
    """Every elementary cycle through ``tid`` — the enumeration whose
    worst case is ``O(3^{n/3})`` (experiment X4 measures it)."""
    adj = adjacency(table.resources())
    cycles: List[List[int]] = []
    path = [tid]
    on_path = {tid}

    def extend(vertex: int) -> None:
        for child in adj.get(vertex, ()):
            if child == tid:
                cycles.append(list(path))
            elif child not in on_path:
                path.append(child)
                on_path.add(child)
                extend(child)
                on_path.discard(child)
                path.pop()

    extend(tid)
    return cycles


def wait_for_matrix(table: LockTable) -> WaitForMatrix:
    """The matrix of the live table's direct wait edges.

    Jiang's write-up maintains edges incrementally on block and
    termination events; under FIFO queues and conversions a waiter's
    blocker set also changes when *other* transactions are granted, so
    a faithful-yet-correct port re-derives the direct edges from the
    live table (O(e)) before each check and keeps the matrix for the
    closure test, which is where his scheme differs from graph search.
    """
    matrix = WaitForMatrix()
    for blocked_tid in table.blocked_tids():
        rid = table.blocked_at(blocked_tid)
        matrix.add_edges(
            blocked_tid, direct_blockers(table.existing(rid), blocked_tid)
        )
    return matrix


class JiangPolicy(DetectionPolicy):
    """Continuous matrix-based detection; min-cost participant victim."""

    name = "jiang"
    continuous = True
    wants_periodic = False

    def on_block(self, host, tid, rid, mode):
        matrix = wait_for_matrix(host.table)
        costs = host.costs
        victims = []
        while matrix.deadlocked(tid):
            participants = matrix.participants(tid)
            victim = min(participants, key=lambda t: (costs.cost(t), t))
            victims.append(victim)
            matrix.remove_transaction(victim)
            if victim == tid:
                break
        if not victims:
            return None
        return release_victims(host, victims, len(victims))
