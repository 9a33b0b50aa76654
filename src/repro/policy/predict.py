"""The predictive pre-pass: flag near-cycles before they close.

The partial-order dynamic deadlock *prediction* line (PAPERS.md) shows
that wait-for patterns one step short of a cycle are observable before
the closing request is ever issued.  This policy runs the paper's
periodic detector unchanged, but prefixes every pass with a scan of
the (merged) H/W-TWBG for **one-edge-short patterns**:

    a pair ``(u, w)`` where ``w`` transitively waits for ``u`` (a
    directed path ``u ⇝ w``), ``u`` itself is *not* blocked, and ``w``
    holds at least one resource.

One more edge — ``u`` requesting, in a conflicting mode, a resource
``w`` holds — closes the path into a cycle, and because ``u`` is
unblocked it is free to issue exactly that request at any moment.
(Conversely, an unblocked vertex has no incoming wait edge, so no pair
the scan reports is already part of a cycle.)

Found patterns surface two ways: the ``repro_near_cycles_total``
counter, and warning records in the incident log
(``repro.incident/1`` with ``kind: "near-cycle"``) carrying the path
and the resources whose holders could close it — the operator's
early-warning channel.  The scan is bounded (``max_sources`` roots,
``max_reports`` detailed payloads per pass) so a wide graph cannot
stall the pass it precedes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.hw_twbg import build_graph
from .base import DetectionPolicy

#: Scan budget defaults.
MAX_SOURCES = 256
MAX_REPORTS = 16


def find_near_cycles(
    states,
    held: Optional[Dict[int, List[str]]] = None,
    max_sources: int = MAX_SOURCES,
    max_reports: int = MAX_REPORTS,
) -> Dict[str, Any]:
    """Scan resource states for one-edge-short patterns.

    ``states`` need only cover the waiting structure (resources with a
    blocked request: nothing else has an edge) provided ``held`` gives,
    for every blocked transaction, the resource ids it holds beyond
    those ``states`` show.

    Returns ``{"count": n, "patterns": [...], "truncated": bool}``
    where each pattern is ``{"path": [u, ..., w], "rids": [...],
    "close": {"tid": u, "holds": [rids w holds]}}`` — the wait chain,
    the resources it blocks on, and the closing edge that would turn
    it into a deadlock.
    """
    states = list(states)
    graph = build_graph(states)
    held = {tid: set(rids) for tid, rids in (held or {}).items()}
    blocked = set()
    for state in states:
        for holder in state.holders:
            held.setdefault(holder.tid, set()).add(state.rid)
            if holder.is_blocked:
                blocked.add(holder.tid)
        for entry in state.queue:
            blocked.add(entry.tid)
    count = 0
    truncated = False
    patterns: List[Dict[str, Any]] = []
    sources = [
        tid
        for tid in sorted(graph.vertices)
        if tid not in blocked and graph.successors(tid)
    ]
    if len(sources) > max_sources:
        sources = sources[:max_sources]
        truncated = True
    for source in sources:
        # BFS over wait edges: everything reached transitively waits
        # for ``source``; record the shortest wait chain per vertex.
        parent: Dict[int, Any] = {source: None}
        via: Dict[int, Any] = {}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for vertex in frontier:
                for edge in graph.successors(vertex):
                    if edge.target in parent:
                        continue
                    parent[edge.target] = vertex
                    via[edge.target] = edge
                    next_frontier.append(edge.target)
            frontier = next_frontier
        for target in sorted(parent):
            if target == source or not held.get(target):
                continue
            count += 1
            if len(patterns) >= max_reports:
                truncated = True
                continue
            path: List[int] = []
            rids: List[str] = []
            vertex = target
            while vertex is not None:
                path.append(vertex)
                edge = via.get(vertex)
                if edge is not None and edge.rid not in rids:
                    rids.append(edge.rid)
                vertex = parent[vertex]
            path.reverse()
            rids.reverse()
            patterns.append({
                "path": path,
                "rids": rids,
                "close": {
                    "tid": source,
                    "holds": sorted(held[target]),
                },
            })
    return {"count": count, "patterns": patterns, "truncated": truncated}


class PredictivePolicy(DetectionPolicy):
    """Periodic detection plus the near-cycle pre-pass."""

    name = "predict"

    def __init__(
        self,
        max_sources: int = MAX_SOURCES,
        max_reports: int = MAX_REPORTS,
    ) -> None:
        self.max_sources = max_sources
        self.max_reports = max_reports
        #: Cumulative one-edge-short patterns seen across passes.
        self.near_cycles_total = 0
        #: Patterns found by the most recent pre-pass.
        self.last_near_cycles = 0
        self._pending: List[Dict[str, Any]] = []

    def pre_pass(self, states, held=None) -> None:
        report = find_near_cycles(
            states,
            held,
            max_sources=self.max_sources,
            max_reports=self.max_reports,
        )
        self.last_near_cycles = report["count"]
        self.near_cycles_total += report["count"]
        if report["count"]:
            self._pending.append(report)

    def take_warnings(self) -> List[Dict[str, Any]]:
        pending, self._pending = self._pending, []
        return pending

    def describe(self):
        return {
            "name": self.name,
            "near_cycles_total": self.near_cycles_total,
            "last_near_cycles": self.last_near_cycles,
        }
