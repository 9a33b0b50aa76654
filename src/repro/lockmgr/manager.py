"""LockManager — the façade over lock table, scheduler and detectors.

This is the component a database kernel would talk to.  It exposes the
paper's model faithfully:

* ``lock(tid, rid, mode)`` — the only way to acquire or convert a lock;
  honors requests FIFO except for conversions (Section 3).
* ``finish(tid)`` — strict two-phase locking releases *all* locks at
  transaction end (commit or abort); there is deliberately no public
  single-lock release.
* ``detect()`` — run the periodic detection-resolution pass (Section 5);
  with ``continuous=True`` the manager instead runs a rooted detection
  after every blocking request (the companion algorithm).

Detection *decisions* — what happens at block time, what runs around a
pass — live in one :class:`~repro.policy.base.DetectionPolicy` object
(``policy=``); the ``continuous`` flag is kept as a shorthand for the
continuous policy.  The default policy is the paper's periodic scheme,
bit-for-bit (the explorer's policy-equivalence oracle pins this down).

All observable effects are returned as event lists
(:mod:`repro.lockmgr.events`); the manager additionally keeps the
most recent ones in a bounded :class:`~repro.lockmgr.events.EventLog`
for inspection by tests, the simulator and the ``log`` op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..core.errors import LockTableError
from ..core.hw_twbg import HWTWBG, build_graph
from ..core.modes import LockMode
from ..core.victim import CostTable
from .detection_pass import DetectionPass, LiveBinding
from .events import Aborted, EventLog, Granted
from .lock_table import LockTable
from . import scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.detection import DetectionResult


class LockManager:
    """A strict-2PL lock manager with H/W-TWBG deadlock handling.

    Parameters
    ----------
    costs:
        Shared cost table for victim selection (default: unit costs).
    continuous:
        When True, every blocking request immediately triggers a rooted
        deadlock check (the continuous companion detector).  When False
        (default), deadlocks are only resolved by explicit :meth:`detect`
        calls — the periodic scheme.  Shorthand for
        ``policy="continuous"``.
    policy:
        A :class:`~repro.policy.base.DetectionPolicy` name or instance
        deciding block-time behavior and pass pre/post hooks; default
        the periodic policy.  Unlike the service-layer components the
        monolithic manager does **not** consult ``REPRO_POLICY`` —
        tests and embedded users get the paper's behavior unless they
        opt in explicitly.
    listener:
        Optional callable invoked with every event the manager logs
        (grants, blocks, aborts, repositions) at the moment it happens —
        the seam the telemetry layer (:mod:`repro.obs`) subscribes to.
    """

    def __init__(
        self,
        costs: Optional[CostTable] = None,
        continuous: bool = False,
        track_graph: bool = False,
        listener: Optional[Callable[[object], None]] = None,
        policy=None,
    ) -> None:
        from ..policy import resolve_policy

        self.table = LockTable()
        self.costs = costs if costs is not None else CostTable()
        self.policy = resolve_policy(
            policy, continuous=continuous, env=False
        ).bind(self)
        self.continuous = self.policy.continuous
        self.log = EventLog()
        self.listener = listener
        self._aborted: Set[int] = set()
        #: Result of the continuous check triggered by the most recent
        #: blocking ``lock`` call (None when it did not run).
        self.last_detection: Optional["DetectionResult"] = None
        #: Incremental graph maintainer (``track_graph=True``): kept in
        #: sync on every operation so :meth:`graph` is O(edges) instead
        #: of a rebuild from the lock table.
        self.tracker = None
        if track_graph:
            from ..core.incremental import IncrementalHWTWBG

            self.tracker = IncrementalHWTWBG(self.table)

    # -- the locking surface ------------------------------------------------

    def lock(self, tid: int, rid: str, mode: LockMode) -> scheduler.RequestOutcome:
        """Request (or convert to) ``mode`` on ``rid`` for ``tid``.

        Returns the request outcome.  Under continuous detection a
        blocking request may be resolved on the spot; the resolution's
        events are appended to the outcome via :attr:`last_detection`.
        """
        if tid in self._aborted:
            raise LockTableError(
                "transaction {} was aborted and cannot lock".format(tid)
            )
        outcome = scheduler.request(self.table, tid, rid, mode)
        self._publish(outcome)
        self.last_detection = None
        if not outcome.granted:
            self.last_detection = self.policy.on_block(self, tid, rid, mode)
        if self.last_detection is not None:
            self._absorb(self.last_detection)
            if self.tracker is not None:
                # Resolution may have touched arbitrary resources.
                self.tracker.refresh_all()
        elif self.tracker is not None:
            self.tracker.refresh(rid)
        return outcome

    def finish(self, tid: int) -> List[Granted]:
        """End ``tid`` (commit or abort): release everything it holds or
        waits for and sweep the freed resources.  Returns the grants the
        release enabled."""
        affected = self.table.held_by(tid)
        blocked_rid = self.table.blocked_at(tid)
        if blocked_rid is not None:
            affected.add(blocked_rid)
        grants = scheduler.release_all(self.table, tid)
        self.costs.forget(tid)
        self._aborted.discard(tid)
        self._publish(*grants)
        if self.tracker is not None:
            self.tracker.refresh_many(affected)
        return grants

    # -- deadlock handling ------------------------------------------------------

    def detect(self) -> DetectionResult:
        """One periodic detection-resolution pass (Steps 1–3)."""
        result = DetectionPass(
            LiveBinding(self.table, self._absorb), self.costs, self.policy
        ).run()
        if self.tracker is not None:
            self.tracker.refresh_all()
        return result

    def _absorb(self, result: DetectionResult) -> None:
        """Fold a detection result into the manager's view: remember the
        aborted victims (their further requests are rejected) and log the
        events."""
        reason = getattr(result, "abort_reason", "deadlock victim")
        for tid in result.aborted:
            self._aborted.add(tid)
            self._publish(Aborted(tid, reason))
        self._publish(*result.repositions)
        self._publish(*result.grants)

    def _publish(self, *events) -> None:
        """Append events to the log and notify the listener."""
        log, listener = self.log, self.listener
        log.counts[0] += len(events)
        for event in events:
            log.append(event)
            if listener is not None:
                listener(event)

    # -- introspection --------------------------------------------------------

    def graph(self) -> HWTWBG:
        """The current H/W-TWBG — served by the incremental tracker when
        ``track_graph=True``, rebuilt from the lock table otherwise."""
        if self.tracker is not None:
            return self.tracker.graph()
        return build_graph(self.table.resources())

    def blocked_at(self, tid: int) -> Optional[str]:
        return self.table.blocked_at(tid)

    def is_blocked(self, tid: int) -> bool:
        return self.table.is_blocked(tid)

    def was_aborted(self, tid: int) -> bool:
        """True if a detector chose ``tid`` as victim and the transaction
        layer has not yet acknowledged with :meth:`finish`."""
        return tid in self._aborted

    def holding(self, tid: int) -> Dict[str, LockMode]:
        """Map of resource id to granted mode for ``tid``."""
        held = {}
        for rid in self.table.held_by(tid):
            entry = self.table.existing(rid).holder_entry(tid)
            if entry is not None:
                held[rid] = entry.granted
        return held

    def deadlocked(self) -> bool:
        """True iff the system is currently deadlocked (Theorem 1:
        equivalent to a cycle in the H/W-TWBG)."""
        return self.graph().has_cycle()

    def __str__(self) -> str:
        return str(self.table)
