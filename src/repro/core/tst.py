"""RST/TST — the detector's internal data structures (Section 5).

The paper implements the scheduling policy and the H/W-TWBG over two
tables:

* **RST** (resource status table) — one entry per locked resource with
  ``rid``, total mode, queue and holder list.  In this library the live
  :class:`~repro.lockmgr.lock_table.LockTable` *is* the RST; nothing is
  duplicated.
* **TST** (transaction status table) — one entry per transaction with
  ``ancestor``, ``pr``, ``waited`` and ``current``:

  - ``waited`` holds the outgoing H/W-TWBG edges of the transaction as
    ``(lock, tid)`` records.  An H edge ``Ti -> Tj`` is ``(NL, Tj)``;
    the single W edge of a queued transaction carries its blocked mode
    and points to its queue successor (0 for the last queue member).
    **The W edge, if any, sits at the front of the list** — the paper
    relies on this ordering in Example 5.1 to detect the longer cycle
    first.
  - ``pr`` is the resource the transaction is blocked at;
  - ``ancestor`` marks the directed walk's current path (0 = off path,
    -1 = walk root, otherwise the parent transaction id);
  - ``current`` is the next edge to examine (``None`` once exhausted or
    once the transaction was resolved away).

W edges mirror the queues, which the scheduler maintains continuously;
H edges are materialized only while the periodic detector runs (Step 1)
and conceptually dropped afterwards (Step 3) — here the whole TST is a
per-run object, so dropping is implicit.

One representational extension over the paper: each edge also records the
resource id it came from, which lets TDR-2 retarget exactly the W edges
of the repositioned queue in O(queue length).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..lockmgr.lock_table import LockTable
from .hw_twbg import resource_edges, H_LABEL
from .modes import LockMode
from .requests import ResourceState

#: ``ancestor`` sentinel values.
OFF_PATH = 0
ROOT = -1


@dataclass
class TSTEdge:
    """One ``waited`` record: ``(lock, tid)`` plus the source resource.

    ``lock`` is ``NL`` for H edges and the waiter's blocked mode for W
    edges (the paper's encoding — the label is derived from this field).
    ``target`` is 0 for the W edge of a queue's last member.
    """

    lock: LockMode
    target: int
    rid: str

    @property
    def is_w(self) -> bool:
        return self.lock is not LockMode.NL

    @property
    def label(self) -> str:
        return "W" if self.is_w else "H"

    def __str__(self) -> str:
        return "({}, {})".format(
            self.lock.name, "T{}".format(self.target) if self.target else "0"
        )


@dataclass
class TSTEntry:
    """One transaction's row in the TST."""

    tid: int
    ancestor: int = OFF_PATH
    pr: Optional[str] = None
    in_queue: bool = False
    waited: List[TSTEdge] = field(default_factory=list)
    current: Optional[int] = None

    def reset_walk(self) -> None:
        """Initialize ``ancestor``/``current`` for Step 2."""
        self.ancestor = OFF_PATH
        self.current = 0 if self.waited else None

    def current_edge(self) -> Optional[TSTEdge]:
        if self.current is None:
            return None
        return self.waited[self.current]

    def advance(self) -> None:
        """Move ``current`` to the next edge (``None`` when exhausted)."""
        if self.current is None:
            return
        self.current += 1
        if self.current >= len(self.waited):
            self.current = None

    def kill(self) -> None:
        """Mark the transaction resolved away (``current := nil``)."""
        self.current = None

    def w_edge(self) -> Optional[TSTEdge]:
        """The transaction's W edge (front of ``waited``), if queued."""
        if self.waited and self.waited[0].is_w:
            return self.waited[0]
        return None

    def __str__(self) -> str:
        edges = " ".join(str(edge) for edge in self.waited)
        return "T{}: pr={} waited=[{}]".format(
            self.tid, self.pr or "-", edges
        )


class TST:
    """The transaction status table for one detector run.

    Step 1 of the periodic algorithm: W edges are copied from the queues
    (they are "present all the time"), H edges are constructed by ECR-1
    and ECR-2 for every *waiting* resource (each ECR needs a blocked
    request at the resource, so no other contributes an edge), and the
    walk variables are initialized.
    """

    def __init__(self, table: LockTable) -> None:
        self._table = table
        self.entries: Dict[int, TSTEntry] = {}
        for state in table.waiting_resources():
            self._load_resource(state)
        for entry in self.entries.values():
            entry.reset_walk()

    # -- construction -------------------------------------------------------

    def entry(self, tid: int) -> TSTEntry:
        record = self.entries.get(tid)
        if record is None:
            record = TSTEntry(tid=tid)
            self.entries[tid] = record
        return record

    def _load_resource(self, state: ResourceState) -> None:
        """Install the W edges, ``pr`` markers and ECR H edges of one
        resource.  W edges go to the *front* of each waited list."""
        for position, waiter in enumerate(state.queue):
            record = self.entry(waiter.tid)
            record.pr = state.rid
            record.in_queue = True
            successor = (
                state.queue[position + 1].tid
                if position + 1 < len(state.queue)
                else 0
            )
            record.waited.insert(
                0, TSTEdge(waiter.blocked, successor, state.rid)
            )
        for holder in state.holders:
            record = self.entry(holder.tid)
            if holder.is_blocked:
                record.pr = state.rid
                record.in_queue = False
        for edge in resource_edges(state):
            if edge.label != H_LABEL:
                continue  # W edges were installed from the queue above.
            self.entry(edge.source).waited.append(
                TSTEdge(LockMode.NL, edge.target, edge.rid)
            )

    # -- queries --------------------------------------------------------------

    def tids(self) -> List[int]:
        """All transaction ids, ascending (the paper's ``for v := 1 to N``)."""
        return sorted(self.entries)

    def resource(self, rid: str) -> ResourceState:
        """RST lookup (delegates to the live lock table)."""
        return self._table.existing(rid)

    # -- TDR-2 maintenance ------------------------------------------------------

    def retarget_queue_edges(self, rid: str) -> None:
        """Re-point the W edges of ``rid``'s queue members after a TDR-2
        repositioning, so the TST keeps matching the queue.  The edge
        records are updated in place; ``current`` indexes stay valid."""
        state = self.resource(rid)
        for position, waiter in enumerate(state.queue):
            record = self.entries[waiter.tid]
            w_edge = record.w_edge()
            if w_edge is None:  # pragma: no cover - defensive
                continue
            w_edge.target = (
                state.queue[position + 1].tid
                if position + 1 < len(state.queue)
                else 0
            )

    # -- presentation -------------------------------------------------------------

    def __str__(self) -> str:
        return "\n".join(str(self.entries[tid]) for tid in self.tids())
