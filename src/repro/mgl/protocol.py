"""The multiple granularity locking protocol of Gray [10, 11].

To lock a node of the hierarchy in mode ``m``, a transaction must first
hold the required intention mode on every ancestor, root first:

* ``IS`` or ``S`` on a node requires at least ``IS`` on the parent;
* ``IX``, ``SIX`` or ``X`` requires at least ``IX`` on the parent.

:class:`MGLProtocol` performs those acquisitions through a
:class:`~repro.lockmgr.sharded.ShardedLockCore`, one lock at a time, for
an integer tid — the sequential model means a transaction that blocks
on an ancestor simply stays blocked there (the core records where);
re-issuing the same :meth:`lock` call after waking resumes where it
stopped, because already-covered modes are immediate grants under the
conversion rule.

The protocol can also *verify* rather than acquire (``auto_intent=False``)
for applications that manage intention locks themselves; a missing
intention lock then raises :class:`ProtocolViolation`.
"""

from __future__ import annotations

from typing import List

from ..core.errors import ProtocolViolation, TransactionAborted
from ..core.modes import LockMode, required_parent_mode, stronger_or_equal
from ..lockmgr.sharded import ShardedLockCore
from .hierarchy import ResourceHierarchy


class MGLProtocol:
    """Hierarchy-aware locking front end."""

    def __init__(
        self,
        hierarchy: ResourceHierarchy,
        core: ShardedLockCore,
        auto_intent: bool = True,
    ) -> None:
        self.hierarchy = hierarchy
        self.core = core
        self.auto_intent = auto_intent

    def lock(self, tid: int, rid: str, mode: LockMode) -> bool:
        """Lock ``rid`` in ``mode``, taking (or checking) intention locks
        on all ancestors root-first.  Returns True when every lock on the
        path was granted; False when the transaction blocked somewhere on
        the path (call again after it wakes to resume).

        Raises :class:`TransactionAborted` when a block-time pass (the
        continuous policy) chose ``tid`` itself as victim.
        """
        core = self.core
        for step_rid, step_mode in self.plan(rid, mode):
            if not self.auto_intent and step_rid != rid:
                self._check_held(tid, step_rid, step_mode)
                continue
            if core.lock(tid, step_rid, step_mode).granted:
                continue
            if core.was_aborted(tid):
                raise TransactionAborted(tid)
            if core.is_blocked(tid):
                return False
            # Still here: the block-time pass resolved the wait by
            # granting it.
        return True

    def plan(self, rid: str, mode: LockMode) -> List[tuple]:
        """The ``(rid, mode)`` acquisition sequence for locking ``rid`` in
        ``mode`` — ancestors root-first with their required intention
        modes, then the target itself.

        >>> # db -> table -> row, locking the row in X:
        >>> # [('db', IX), ('table', IX), ('row', X)]
        """
        path = self.hierarchy.path_to_root(rid)
        ancestor_mode = required_parent_mode(mode)
        steps = [(ancestor, ancestor_mode) for ancestor in path[:-1]]
        steps.append((rid, mode))
        return steps

    def _check_held(self, tid: int, rid: str, needed: LockMode) -> None:
        held = self.core.holding(tid).get(rid, LockMode.NL)
        if not stronger_or_equal(held, needed):
            raise ProtocolViolation(
                "T{} holds {} on {!r} but the MGL protocol requires at "
                "least {}".format(tid, held.name, rid, needed.name)
            )
