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
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..lockmgr.lock_table import LockTable
from .hw_twbg import H_LABEL, W_LABEL, h_edges
from .modes import LockMode
from .requests import ResourceState

#: ``ancestor`` sentinel values.
OFF_PATH = 0
ROOT = -1

_NL = LockMode.NL


class TSTEdge(NamedTuple):
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
        return self.lock is not _NL

    @property
    def label(self) -> str:
        return W_LABEL if self.lock is not _NL else H_LABEL

    def __str__(self) -> str:
        return "({}, {})".format(
            self.lock.name, "T{}".format(self.target) if self.target else "0"
        )


@dataclass(slots=True)
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
        if self.waited and self.waited[0].lock is not _NL:
            return self.waited[0]
        return None

    def __str__(self) -> str:
        edges = " ".join(str(edge) for edge in self.waited)
        return "T{}: pr={} waited=[{}]".format(
            self.tid, self.pr or "-", edges
        )


class TST:
    """The transaction status table for one detector run.

    Step 1 of the periodic algorithm, in one scan of the waiting
    resources (``states``; default: the table's): W edges are copied from
    the queues (they are "present all the time") and the blocked
    requests marked, then H edges are added by ECR-1 and ECR-2
    (:func:`~repro.core.hw_twbg.h_edges`) for every *waiting* resource —
    each ECR needs a blocked request at the resource, so no other
    contributes an edge — and the walk variables are initialized.  A
    transaction waits at one place only (Axiom 1), so its W edge is the
    first record of its row.
    """

    def __init__(
        self, table: LockTable, states: Optional[Sequence[ResourceState]] = None
    ) -> None:
        self._table = table
        if states is None:
            states = table.waiting_resources()
        self.entries: Dict[int, TSTEntry] = {}
        entries = self.entries
        for state in states:
            rid, successor = state.rid, 0
            for waiter in reversed(state.queue):
                entries[waiter.tid] = TSTEntry(
                    waiter.tid, OFF_PATH, rid, True,
                    [TSTEdge(waiter.blocked, successor, rid)],
                )
                successor = waiter.tid
            for holder in state.holders:
                if holder.blocked is not _NL:
                    entries[holder.tid] = TSTEntry(holder.tid, OFF_PATH, rid)
        for state in states:
            rid = state.rid
            for holder in state.holders:
                if holder.tid not in entries:
                    entries[holder.tid] = TSTEntry(holder.tid)
            for source, target in h_edges(state):
                entries[source].waited.append(TSTEdge(_NL, target, rid))
        #: Every ``waited`` record, the W edges to 0 included.
        self.edge_count = 0
        for entry in entries.values():
            entry.current = 0 if entry.waited else None
            self.edge_count += len(entry.waited)

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
        repositioning, so the TST keeps matching the queue; ``current``
        indexes stay valid."""
        successor = 0
        for waiter in reversed(self.resource(rid).queue):
            waited = self.entries[waiter.tid].waited
            waited[0] = TSTEdge(waited[0].lock, successor, rid)
            successor = waiter.tid

    # -- presentation -------------------------------------------------------------

    def __str__(self) -> str:
        return "\n".join(str(self.entries[tid]) for tid in self.tids())
