"""H/W-TWBG — the Holder/Waiter Transaction Waited-By Graph (Section 4).

Each vertex is a transaction; each edge ``Ti -> Tj`` means *the completion
of Ti is waited by Tj* and carries one of two labels:

* ``H`` — Ti is a holder of the resource Tj is waiting for;
* ``W`` — Ti is the waiter immediately ahead of Tj in the queue.

Edges are built by the three **Edge Construction Rules**:

ECR-1
    For two holder-list entries ``(Ti, gmi, bmi)`` preceding
    ``(Tj, gmj, bmj)``: add ``Ti -> Tj`` (H) if ``gmi`` or ``bmi``
    conflicts with ``bmj``; add ``Tj -> Ti`` (H) if ``gmj`` conflicts
    with ``bmi``.  (The ``bm``/``bm`` conflict only points from the
    earlier to the later entry — the UPR ordering decides who waits.)
ECR-2
    For each holder entry, add an H edge to the *first* queue request
    whose blocked mode conflicts with the holder's ``gm`` or ``bm``.
ECR-3
    Add a W edge between each pair of adjacent queue entries.

A **TRRP** (Transaction Resource Request Path) is one H edge plus its
trailing W edges — a partial picture of one resource's holder list and
queue.  The paper proves (Appendix, re-verified by this package's property
tests):

1. no cycle exists without an H edge;
2. no cycle consists of a single TRRP;
3. every cycle consists of at least two TRRPs;
4. H/W-TWBG has a cycle **iff** the system is deadlocked (Theorem 1).

This module offers the graph as an explicit, immutable-ish object for
analysis, tests and baselines.  The production detector
(:mod:`repro.core.detection`) uses the TST encoding instead; both are
built from the same rule functions here, so they cannot drift apart.
"""

from __future__ import annotations

from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .modes import CONFLICT_MASKS, LockMode
from .requests import ResourceState

#: Edge labels.
H_LABEL = "H"
W_LABEL = "W"
_NL = LockMode.NL


class Edge(NamedTuple):
    """A labeled edge ``source -> target`` ("target waits for source").

    ``rid`` names the resource that gave rise to the edge; ``lock`` is the
    paper's internal edge tag — the waiter's blocked mode on W edges,
    ``NL`` on H edges (Section 5's TST encoding derives the label from
    exactly this field).
    """

    source: int
    target: int
    label: str
    rid: str
    lock: LockMode = LockMode.NL

    def __str__(self) -> str:
        return "T{} -{}-> T{}".format(self.source, self.label, self.target)


def h_edges(state: ResourceState) -> List[Tuple[int, int]]:
    """The ``(source, target)`` pairs of the H edges one resource
    contributes (ECR-1, then ECR-2) — the one rule function behind both
    :func:`resource_edges` and Step 1's TST rows
    (:class:`~repro.core.tst.TST`), so the two cannot drift apart.

    The conflict tests run on precomputed bit masks: for each holder,
    ``conflict[i]`` has bit ``b`` set iff mode ``b`` conflicts with the
    holder's granted *or* blocked mode (``Comp`` is symmetric, so one
    mask serves both directions), turning every pairwise matrix probe
    into a shift-and-test.
    """
    pairs: List[Tuple[int, int]] = []
    holders = state.holders
    queue = state.queue
    conflict = [
        CONFLICT_MASKS[holder.granted] | CONFLICT_MASKS[holder.blocked]
        for holder in holders
    ]
    for i, earlier in enumerate(holders):
        # ECR-1: ordered holder pairs.
        earlier_mask = conflict[i]
        for later in holders[i + 1 :]:
            if later.blocked is not _NL and earlier_mask >> later.blocked & 1:
                pairs.append((earlier.tid, later.tid))
            if (
                earlier.blocked is not _NL
                and CONFLICT_MASKS[later.granted] >> earlier.blocked & 1
            ):
                pairs.append((later.tid, earlier.tid))
    for i, holder in enumerate(holders):
        # ECR-2: holder -> first conflicting queue request.
        for waiter in queue:
            if conflict[i] >> waiter.blocked & 1:
                pairs.append((holder.tid, waiter.tid))
                break
    return pairs


def resource_edges(state: ResourceState) -> List[Edge]:
    """All H/W-TWBG edges contributed by one resource (ECR-1, 2, 3)."""
    rid, queue = state.rid, state.queue
    edges = [
        Edge(source, target, H_LABEL, rid) for source, target in h_edges(state)
    ]
    # ECR-3: adjacent queue pairs.
    for ahead, behind in zip(queue, queue[1:]):
        edges.append(Edge(ahead.tid, behind.tid, W_LABEL, rid, ahead.blocked))
    return edges


class HWTWBG:
    """An H/W-TWBG built from a collection of resource states.

    The graph is a plain adjacency structure with cycle and TRRP queries;
    it performs no resolution (see :mod:`repro.core.detection` for that).
    """

    def __init__(self, states: Iterable[ResourceState]) -> None:
        self._states: Dict[str, ResourceState] = {}
        self.edges: List[Edge] = []
        for state in states:
            self._states[state.rid] = state
            self.edges.extend(resource_edges(state))

        vertices: Set[int] = set()
        for state in self._states.values():
            for entry in state.holders:
                vertices.add(entry.tid)
            for entry in state.queue:
                vertices.add(entry.tid)
        self._vertices = vertices
        self._succ: Dict[int, List[Edge]] = {}
        self._pred: Dict[int, List[Edge]] = {}
        for edge in self.edges:
            self._succ.setdefault(edge.source, []).append(edge)
            self._pred.setdefault(edge.target, []).append(edge)

    # -- plain graph queries ----------------------------------------------

    @property
    def vertices(self) -> Set[int]:
        """All transactions appearing in any holder list or queue."""
        return set(self._vertices)

    def successors(self, tid: int) -> List[Edge]:
        """Outgoing edges of ``tid`` (transactions that wait for it)."""
        return list(self._succ.get(tid, ()))

    def predecessors(self, tid: int) -> List[Edge]:
        """Incoming edges of ``tid`` (transactions it waits for)."""
        return list(self._pred.get(tid, ()))

    def edge_set(self) -> Set[Tuple[int, int, str]]:
        """``(source, target, label)`` triples — handy for figure tests."""
        return {(e.source, e.target, e.label) for e in self.edges}

    def has_edge(self, source: int, target: int, label: Optional[str] = None) -> bool:
        for edge in self._succ.get(source, ()):
            if edge.target == target and (label is None or edge.label == label):
                return True
        return False

    # -- cycles -------------------------------------------------------------

    def has_cycle(self) -> bool:
        """True iff the graph contains a directed cycle — by Theorem 1,
        iff the underlying system is deadlocked."""
        return self.find_cycle() is not None

    def find_cycle(self) -> Optional[List[int]]:
        """Some directed cycle as a vertex list (no repeated vertex), or
        ``None``.  Iterative 3-color DFS."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._vertices}
        parent: Dict[int, int] = {}
        for root in sorted(self._vertices):
            if color[root] != WHITE:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            color[root] = GRAY
            while stack:
                vertex, index = stack[-1]
                out = self._succ.get(vertex, ())
                if index >= len(out):
                    color[vertex] = BLACK
                    stack.pop()
                    continue
                stack[-1] = (vertex, index + 1)
                child = out[index].target
                if color.get(child, BLACK) == GRAY:
                    cycle = [vertex]
                    walk = vertex
                    while walk != child:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if color.get(child) == WHITE:
                    color[child] = GRAY
                    parent[child] = vertex
                    stack.append((child, 0))
        return None

    def elementary_cycles(self) -> List[List[int]]:
        """All elementary cycles (Johnson-style enumeration via the
        baseline implementation).  Exponential in general — analysis and
        tests only."""
        from ..baselines.johnson import elementary_circuits

        adjacency = {
            v: sorted({e.target for e in self._succ.get(v, ())})
            for v in self._vertices
        }
        return elementary_circuits(adjacency)

    # -- TRRP decomposition ---------------------------------------------------

    def cycle_edges(self, cycle: Sequence[int]) -> List[Edge]:
        """The edge objects along ``cycle`` (closing edge included).

        When parallel edges exist between two cycle vertices, an H edge is
        preferred — a cycle must enter each junction through its real
        waited-by relationship, and the detector's TST walk has the same
        preference built into its edge ordering.
        """
        chosen: List[Edge] = []
        length = len(cycle)
        for position, source in enumerate(cycle):
            target = cycle[(position + 1) % length]
            candidates = [
                e for e in self._succ.get(source, ()) if e.target == target
            ]
            if not candidates:
                raise ValueError(
                    "no edge T{} -> T{} in the graph".format(source, target)
                )
            candidates.sort(key=lambda e: e.label)  # 'H' < 'W'
            chosen.append(candidates[0])
        return chosen

    def trrps(self, cycle: Sequence[int]) -> List[List[int]]:
        """Split ``cycle`` into its TRRPs (each starts at an H edge).

        Returns vertex paths, e.g. Example 4.1's
        ``[[1, 2], [2, 5, 6, 7], [7, 8, 9, 3], [3, 1]]``.
        """
        edges = self.cycle_edges(cycle)
        h_positions = [i for i, e in enumerate(edges) if e.label == H_LABEL]
        if not h_positions:
            raise ValueError(
                "cycle without an H edge cannot exist (Lemma 1); got "
                "{!r}".format(list(cycle))
            )
        paths: List[List[int]] = []
        length = len(edges)
        for which, start in enumerate(h_positions):
            end = h_positions[(which + 1) % len(h_positions)]
            span = (end - start) % length or length
            path = [edges[start].source]
            for offset in range(span):
                path.append(edges[(start + offset) % length].target)
            paths.append(path)
        return paths

    def junctions(self, cycle: Sequence[int]) -> List[int]:
        """The TRRP junction transactions of ``cycle`` — the sources of
        its H edges.  These are exactly the TDR-1 victim candidates."""
        return [e.source for e in self.cycle_edges(cycle) if e.label == H_LABEL]

    # -- presentation ---------------------------------------------------------

    def to_dot(self) -> str:
        """Graphviz rendering (W edges dashed), for documentation."""
        lines = ["digraph hw_twbg {"]
        for vertex in sorted(self._vertices):
            lines.append('  T{0} [label="T{0}"];'.format(vertex))
        for edge in self.edges:
            style = ' style="dashed"' if edge.label == W_LABEL else ""
            lines.append(
                '  T{} -> T{} [label="{}/{}"{}];'.format(
                    edge.source, edge.target, edge.label, edge.rid, style
                )
            )
        lines.append("}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return "\n".join(str(edge) for edge in sorted(
            self.edges, key=lambda e: (e.source, e.target, e.label)
        ))


def build_graph(states: Iterable[ResourceState]) -> HWTWBG:
    """Build the H/W-TWBG of a set of resource states (or a whole
    :class:`~repro.lockmgr.lock_table.LockTable` via ``table.resources()``)."""
    return HWTWBG(states)
