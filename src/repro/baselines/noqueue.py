"""A queue-less grant policy — the fairness foil for Section 3.

The paper criticizes Elmagarmid's structure because "each resource being
locked does not contain its own queue of blocked requests.  The
scheduling policy might be unfair and indicates the possibility of
live-lock."  This module implements exactly that kind of scheduler so
the criticism can be measured (experiment X6):

* a request is granted whenever it is compatible with every current
  holder — arrival order carries no weight;
* blocked requests sit in an unordered pending set; after any release,
  *every* pending request compatible with the holders is granted.

Under a steady stream of readers, a writer can wait forever: each
departing reader is replaced before the set of holders ever becomes
empty, and the writer's X never becomes compatible.  The paper's FIFO
queue with the total mode bounds that wait instead — once the writer is
queued, later readers line up behind it.

The implementation reuses :class:`ResourceState` but keeps its ``queue``
as an unordered pending *set* semantically (stored as a list for
determinism of iteration).  It deliberately supports only plain mode
requests (no conversions) — enough for the fairness experiment, matching
the S/X models of the criticized schemes.
"""

from __future__ import annotations

from typing import List

from ..core.modes import LockMode, compatible
from ..core.requests import HolderEntry, QueueEntry, ResourceState


class NoQueueResource:
    """One resource under the queue-less policy."""

    def __init__(self, rid: str) -> None:
        self.state = ResourceState(rid=rid)

    def request(self, tid: int, mode: LockMode) -> bool:
        """Grant iff compatible with all current holders (no queue
        check, no FIFO)."""
        state = self.state
        if all(
            compatible(holder.granted, mode) for holder in state.holders
        ):
            state.holders.append(HolderEntry(tid, mode))
            state.recompute_total()
            return True
        state.enqueue(QueueEntry(tid, mode))
        return False

    def release(self, tid: int) -> List[int]:
        """Remove ``tid``; grant every pending request now compatible
        (scanning the whole pending set — the paper's 'whole T-table has
        to be searched' point).  Returns granted tids."""
        state = self.state
        state.holders = [h for h in state.holders if h.tid != tid]
        state.queue = [q for q in state.queue if q.tid != tid]
        granted: List[int] = []
        changed = True
        while changed:
            changed = False
            for waiter in list(state.queue):
                if all(
                    compatible(holder.granted, waiter.blocked)
                    for holder in state.holders
                ):
                    state.remove_from_queue(waiter.tid)
                    state.holders.append(
                        HolderEntry(waiter.tid, waiter.blocked)
                    )
                    granted.append(waiter.tid)
                    changed = True
        state.recompute_total()
        return granted

    @property
    def holders(self) -> List[int]:
        return [holder.tid for holder in self.state.holders]

    @property
    def pending(self) -> List[int]:
        return [waiter.tid for waiter in self.state.queue]
