"""Classic transaction wait-for graph (TWFG) detection.

The textbook model the paper's Section 1 departs from: each vertex is a
transaction, each edge ``Ti -> Tj`` means *Ti waits for Tj* — exactly the
reverse orientation of H/W-TWBG's waited-by edges.  With multiple lock
modes and FIFO queues, Ti waits for:

* every holder whose granted (or blocked-conversion) mode conflicts with
  Ti's blocked mode, and
* its immediate predecessor in the queue (FIFO ordering is a wait too).

This "full" TWFG has the same detection power as H/W-TWBG (its edge set
is a superset of the reversed H/W-TWBG edges), so it serves as the
ground-truth oracle for Theorem-1 property tests, and as the fair
abort-only baseline: same cycles, but resolution can only abort (no
TDR-2) and every detection pass rebuilds and searches the graph from
scratch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.detection import DetectionResult
from ..core.modes import compatible
from ..core.requests import ResourceState
from ..core.victim import CostTable
from ..lockmgr import scheduler
from ..lockmgr.lock_table import LockTable
from ..policy.base import DetectionPolicy


def waits_for_edges(states: Iterable[ResourceState]) -> Set[Tuple[int, int]]:
    """All ``(waiter, holder)`` wait-for pairs of the given resources."""
    edges: Set[Tuple[int, int]] = set()
    for state in states:
        for position, waiter in enumerate(state.holders):
            if not waiter.is_blocked:
                continue
            for other_position, other in enumerate(state.holders):
                if other.tid == waiter.tid:
                    continue
                if not compatible(other.granted, waiter.blocked):
                    edges.add((waiter.tid, other.tid))
                elif (
                    other_position < position
                    and other.is_blocked
                    and not compatible(other.blocked, waiter.blocked)
                ):
                    # Two conflicting blocked conversions: the UPR order
                    # makes the later one wait for the earlier.
                    edges.add((waiter.tid, other.tid))
        for position, waiter in enumerate(state.queue):
            for holder in state.holders:
                if not compatible(
                    waiter.blocked, holder.granted
                ) or not compatible(waiter.blocked, holder.blocked):
                    edges.add((waiter.tid, holder.tid))
            if position > 0:
                edges.add((waiter.tid, state.queue[position - 1].tid))
    return edges


def adjacency(states: Iterable[ResourceState]) -> Dict[int, List[int]]:
    """Wait-for adjacency map (sorted successor lists)."""
    result: Dict[int, Set[int]] = {}
    for waiter, holder in waits_for_edges(states):
        result.setdefault(waiter, set()).add(holder)
    return {tid: sorted(succ) for tid, succ in result.items()}


def find_cycle(adj: Dict[int, List[int]]) -> Optional[List[int]]:
    """Some cycle in a wait-for adjacency map, or None (3-color DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    vertices: Set[int] = set(adj)
    for targets in adj.values():
        vertices.update(targets)
    color = {v: WHITE for v in vertices}
    parent: Dict[int, int] = {}
    for root in sorted(vertices):
        if color[root] != WHITE:
            continue
        stack = [(root, 0)]
        color[root] = GRAY
        while stack:
            vertex, index = stack[-1]
            successors = adj.get(vertex, ())
            if index >= len(successors):
                color[vertex] = BLACK
                stack.pop()
                continue
            stack[-1] = (vertex, index + 1)
            child = successors[index]
            if color[child] == GRAY:
                cycle = [vertex]
                walk = vertex
                while walk != child:
                    walk = parent[walk]
                    cycle.append(walk)
                cycle.reverse()
                return cycle
            if color[child] == WHITE:
                color[child] = GRAY
                parent[child] = vertex
                stack.append((child, 0))
    return None


def has_deadlock(table: LockTable) -> bool:
    """Ground-truth deadlock oracle over the live lock table."""
    return find_cycle(adjacency(table.resources())) is not None


def resolve(states: List[ResourceState], costs: CostTable) -> List[int]:
    """Abort-only TWFG resolution of a snapshot: while the wait-for
    graph has a cycle, its minimum-cost member is the next victim.
    Returns the victims in choice order; ``states`` is left as it is
    (each removal is simulated on a copy)."""
    victims: List[int] = []
    while True:
        cycle = find_cycle(adjacency(states))
        if cycle is None:
            return victims
        victim = min(cycle, key=lambda t: (costs.cost(t), t))
        victims.append(victim)
        states = _without(states, victim)


def _without(
    states: List[ResourceState], tid: int
) -> List[ResourceState]:
    """Copy of ``states`` with every request of ``tid`` removed (no
    grant sweep — detection only needs the wait structure)."""
    result = []
    for state in states:
        clone = state.copy()
        clone.holders = [h for h in clone.holders if h.tid != tid]
        clone.queue = [q for q in clone.queue if q.tid != tid]
        clone.recompute_total()
        result.append(clone)
    return result


def release_victims(
    host, victims: List[int], cycles: int = 0
) -> DetectionResult:
    """Abort ``victims`` on the host's one table, in order, as a
    resolution that broke ``cycles`` cycles: their locks are released
    and the grants that made are reported with them."""
    grants = []
    for tid in victims:
        grants.extend(scheduler.release_all(host.table, tid))
    result = DetectionResult(aborted=list(victims), grants=grants)
    result.stats.cycles_found = cycles
    return result


class WFGPolicy(DetectionPolicy):
    """Abort-only TWFG detection at block time: the same cycles as the
    paper's scheme, but no TDR-2 and a from-scratch graph per check.
    Victims are the minimum-cost transaction of each cycle."""

    name = "wfg-continuous"
    continuous = True
    wants_periodic = False

    def on_block(self, host, tid, rid, mode):
        victims = resolve(host.table.snapshot(), host.costs)
        if not victims:
            return None
        return release_victims(host, victims, len(victims))
