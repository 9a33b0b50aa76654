"""Elmagarmid's table-based continuous detection (Ph.D. dissertation,
Ohio State, 1985) — the paper's reference [8].

Two tables replace the wait-for graph:

* **T-table** — every blocked transaction with the resource and mode it
  requests;
* **R-table** — every held resource with its holders and their modes.

Detection is continuous: when a request blocks, the tables are chased
(requested resource → its holders → the resources *they* are blocked on
→ ...) until either the chase dies out or returns to the requester —
O(n + e) per check.

Resolution is the part the paper criticizes as "simple but far from
being optimal": whenever a deadlock is found, **the current blocker is
aborted** — the holder standing directly between the requester and its
resource on the detected cycle — regardless of how much work that victim
would lose.  Experiment X2 measures the wasted-work gap against min-cost
TDR selection on identical workloads.

Note on detection coverage: the chase starts at the transaction that
just blocked, so a cycle that only materializes later — when a *grant*
reshuffles the holder list and creates fresh wait-for edges among
already-blocked transactions — is found only by the next chase that
happens to run through it.  The X2 benchmark's nonzero ground-truth
deadlock persistence for this scheme (and Jiang's) is exactly that
effect; the H/W-TWBG continuous walk explores everything reachable from
the blocked transaction and suffers far less.

A structural weakness the paper also calls out — resources in his scheme
"do not contain their own queue of blocked requests", so schedule-after-
release scans the whole T-table and can live-lock — is noted here for
completeness; our driver keeps the Section-3 scheduler underneath, so
the comparison isolates the *victim policy*, which is the measurable
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from ..core.modes import LockMode
from ..lockmgr.lock_table import LockTable
from ..policy.base import DetectionPolicy
from .jiang import direct_blockers
from .wfg import release_victims


@dataclass(frozen=True)
class TTableEntry:
    """A blocked transaction: which resource and mode it requests."""

    tid: int
    rid: str
    mode: LockMode


def build_t_table(table: LockTable) -> Dict[int, TTableEntry]:
    """The T-table of the current lock-table state."""
    entries: Dict[int, TTableEntry] = {}
    for state in table.resources():
        for holder in state.holders:
            if holder.is_blocked:
                entries[holder.tid] = TTableEntry(
                    holder.tid, state.rid, holder.blocked
                )
        for waiter in state.queue:
            entries[waiter.tid] = TTableEntry(
                waiter.tid, state.rid, waiter.blocked
            )
    return entries


def build_r_table(table: LockTable) -> Dict[str, List[Tuple[int, LockMode]]]:
    """The R-table: resource → ``(holder, granted mode)`` list."""
    return {
        state.rid: [(h.tid, h.granted) for h in state.holders]
        for state in table.resources()
    }


def chase(
    table: LockTable, start: int, gone: AbstractSet[int] = frozenset()
) -> Optional[List[int]]:
    """Chase the T/R tables from ``start``; returns a cycle through
    ``start`` as ``[start, blocker1, ..., blockerK]`` or None.

    The chase is a DFS over direct-blocker edges (the same relation the
    tables encode); the first returning path is the "detected cycle" whose
    first hop is the current blocker to abort.  Transactions in ``gone``
    (victims already chosen) are chased around, as if aborted.
    """
    path = [start]
    on_path: Set[int] = {start} | set(gone)

    def step(tid: int) -> Optional[List[int]]:
        rid = table.blocked_at(tid)
        if rid is None:
            return None
        for blocker in sorted(direct_blockers(table.existing(rid), tid)):
            if blocker == start:
                return list(path)
            if blocker in on_path:
                continue
            path.append(blocker)
            on_path.add(blocker)
            found = step(blocker)
            if found is not None:
                return found
            on_path.discard(blocker)
            path.pop()
        return None

    return step(start)


class ElmagarmidPolicy(DetectionPolicy):
    """Continuous T/R-table detection; aborts the current blocker."""

    name = "elmagarmid"
    continuous = True
    wants_periodic = False

    def on_block(self, host, tid, rid, mode):
        victims: List[int] = []
        cycle = chase(host.table, tid)
        while cycle is not None:
            # "Always abort the current blocker": the transaction that
            # directly blocks the requester on the detected cycle.
            victims.append(cycle[1])
            cycle = chase(host.table, tid, victims)
        if not victims:
            return None
        return release_victims(host, victims, len(victims))
