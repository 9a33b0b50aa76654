"""Lock escalation for multiple granularity locking.

When a transaction accumulates many fine-grained locks under one parent,
a real lock manager trades them for a single coarse lock: the lock table
shrinks and future requests under that parent become no-ops.  Escalation
is the classic workload for lock *conversions* — the parent's intention
mode (IS/IX) is converted upward to S or SIX/X — which makes it a natural
stress test for the paper's UPR and total-mode machinery, and deadlocks
caused by two transactions escalating against each other are exactly the
Observation-3.1(3) conversion deadlocks H/W-TWBG models.

:class:`EscalationPolicy` watches per-(transaction, parent) child-lock
counts and, past ``threshold``, issues the coarse conversion through the
lock core:

* children held in read modes only  → parent ``S``;
* any child held in a write mode    → parent ``X``
  (``SIX`` is not sufficient: it covers reads of the subtree plus
  *further intent* to write, but the already-held child X locks must be
  subsumed, which needs the parent to be exclusive).

Escalation can block like any conversion; the caller sees the usual
blocked/granted outcome and resumes exactly as with plain MGL locking.
After a successful escalation the child locks are logically redundant;
strict 2PL keeps them until commit, but new child requests are answered
by the coarse lock (immediate covered grants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..core.modes import LockMode, stronger_or_equal
from ..lockmgr.sharded import ShardedLockCore
from .hierarchy import ResourceHierarchy
from .protocol import MGLProtocol


@dataclass
class EscalationStats:
    """Counters for tests and experiments."""

    attempts: int = 0
    granted: int = 0
    blocked: int = 0


class EscalatingMGL:
    """An MGL front end that escalates past a child-lock threshold."""

    def __init__(
        self,
        hierarchy: ResourceHierarchy,
        core: ShardedLockCore,
        threshold: int = 8,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.mgl = MGLProtocol(hierarchy, core)
        self.threshold = threshold
        self.stats = EscalationStats()
        self._child_counts: Dict[Tuple[int, str], int] = {}
        self._escalated: Dict[int, Set[str]] = {}
        self._writes_seen: Dict[Tuple[int, str], bool] = {}

    @property
    def hierarchy(self) -> ResourceHierarchy:
        return self.mgl.hierarchy

    # -- locking ------------------------------------------------------------

    def lock(self, tid: int, rid: str, mode: LockMode) -> bool:
        """Lock ``rid`` in ``mode``; may escalate the parent first.

        Returns False when blocked (either on the normal MGL path or on
        the escalation conversion); call again after waking, as with
        :meth:`MGLProtocol.lock`.
        """
        parent = self.hierarchy.parent(rid)
        if parent is not None and self._covered(tid, parent, mode):
            # The coarse lock already subsumes this request.
            return True
        if parent is not None and self._should_escalate(tid, parent):
            if not self._escalate(tid, parent):
                return False
            if self._covered(tid, parent, mode):
                return True
        granted = self.mgl.lock(tid, rid, mode)
        if granted and parent is not None:
            key = (tid, parent)
            self._child_counts[key] = self._child_counts.get(key, 0) + 1
            if mode in (LockMode.X, LockMode.IX, LockMode.SIX):
                self._writes_seen[key] = True
        return granted

    def _covered(self, tid: int, parent: str, mode: LockMode) -> bool:
        held = self.mgl.core.holding(tid).get(parent, LockMode.NL)
        return held in (LockMode.S, LockMode.X) and stronger_or_equal(
            held, LockMode.S if mode in (LockMode.S, LockMode.IS) else LockMode.X
        )

    def _should_escalate(self, tid: int, parent: str) -> bool:
        key = (tid, parent)
        if parent in self._escalated.get(tid, set()):
            return False
        return self._child_counts.get(key, 0) >= self.threshold

    def _escalate(self, tid: int, parent: str) -> bool:
        """Convert the parent intention lock to a coarse lock."""
        key = (tid, parent)
        target = LockMode.X if self._writes_seen.get(key) else LockMode.S
        self.stats.attempts += 1
        granted = self.mgl.lock(tid, parent, target)
        if granted:
            self.stats.granted += 1
            self._escalated.setdefault(tid, set()).add(parent)
        else:
            self.stats.blocked += 1
        return granted

    # -- lifecycle ------------------------------------------------------------

    def forget(self, tid: int) -> None:
        """Drop the bookkeeping of a finished transaction."""
        self._escalated.pop(tid, None)
        for key in [k for k in self._child_counts if k[0] == tid]:
            del self._child_counts[key]
        for key in [k for k in self._writes_seen if k[0] == tid]:
            del self._writes_seen[key]
