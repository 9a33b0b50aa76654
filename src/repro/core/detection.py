"""The periodic deadlock detection and resolution algorithm (Section 5).

The algorithm runs three steps over the lock table (RST) and a per-run
:class:`~repro.core.tst.TST`:

**Step 1 — initialization.**  Construct the H edges by ECR-1/ECR-2 for
every *waiting* resource — one with a queue or a blocked conversion; no
other has an edge to draw (W edges mirror the queues, which the
scheduler maintains continuously) — and reset every transaction's
``ancestor``/``current``.  With nobody blocked the run returns an empty
result without building anything.

**Step 2 — cycle detection and victim selection.**  A directed walk is
started from every transaction in id order.  The walk descends along
``current`` edges, marking the path with ``ancestor`` pointers; meeting a
vertex whose ``ancestor`` is non-zero closes a cycle.  The cycle is read
back off the ancestor chain, its TDR candidates are costed
(:mod:`repro.core.victim`), the minimum-cost one is applied — TDR-1 adds
the victim to the *abortion-list* and kills its ``current``; TDR-2
repositions the resource queue (AV before ST), bumps the delayed
transactions' costs, records the resource on the *change-list* and kills
the AV members' ``current`` (they can no longer deadlock, Lemma 4.1) —
and the walk resumes at the vertex where the cycle was found.  Because
every resolution kills at least one cycle vertex, the number of cycles
searched (``c'``) never exceeds the number of transactions.

**Step 3 — confirmation.**  Victims are processed against the live table:
a victim that an earlier victim's release has already *granted* is spared
(Example 5.1 — it is no longer deadlocked, so aborting it would be
waste); otherwise all its requests are removed and the freed resources
swept.  Finally every change-list resource is swept, turning TDR-2
repositionings into actual grants.  The victims are examined newest
first, matching the paper's Example 5.1 walk-through (the later, inner
cycle's victim often supersedes the earlier one).  A pass that ran
Steps 1-2 on a copy (sharded or clustered) runs this step once, against
the live state, not on the copy.

The run returns a :class:`DetectionResult` with the aborted and spared
transactions, every grant event, the per-cycle resolution records and the
instrumentation counters used by the complexity experiments (C1–C3).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from ..lockmgr import scheduler
from ..lockmgr.events import Granted, Repositioned
from ..lockmgr.lock_table import LockTable
from .errors import ReproError
from .requests import ResourceState
from .tst import OFF_PATH, ROOT, TST
from .victim import (
    CostTable,
    RepositionCandidate,
    Resolution,
    candidates_for_cycle,
    select_victim,
)

if TYPE_CHECKING:
    from ..lockmgr.detection_pass import PassInfo


@dataclass
class DetectionStats:
    """Instrumentation counters for the complexity experiments.

    ``edges_examined`` counts every edge considered by the Step-2 walk
    (including re-examinations after a resolution); ``cycles_found`` is
    the paper's ``c'``.  ``transactions`` (and ``backtrack_steps``)
    count the waiting structure: holders and waiters of resources
    somebody is blocked at.
    """

    transactions: int = 0
    edges_total: int = 0
    edges_examined: int = 0
    cycles_found: int = 0
    tdr1_applied: int = 0
    tdr2_applied: int = 0
    backtrack_steps: int = 0
    #: Cycles that offered any TDR-2 candidate (an AV/ST-splittable
    #: junction), chosen or not: ``tdr2_applied`` over this separates
    #: "lost on cost" from "no such junction".
    tdr2_applicable: int = 0


@dataclass
class DetectionResult:
    """Outcome of one periodic detection-resolution run."""

    aborted: List[int] = field(default_factory=list)
    spared: List[int] = field(default_factory=list)
    grants: List[Granted] = field(default_factory=list)
    repositions: List[Repositioned] = field(default_factory=list)
    resolutions: List[Resolution] = field(default_factory=list)
    stats: DetectionStats = field(default_factory=DetectionStats)
    #: What a routed pass did (a
    #: :class:`~repro.lockmgr.detection_pass.PassInfo`): set by the
    #: sharded core's cross-shard pass and the cluster coordinator's
    #: pass; None for a run on a single table.
    routing: Optional["PassInfo"] = None
    #: The Aborted-event reason the absorbing manager publishes for
    #: :attr:`aborted`.  Detector passes keep the default; block-time
    #: policies that abort outside a pass (the nowait lane) override it.
    abort_reason: str = "deadlock victim"

    @property
    def deadlock_found(self) -> bool:
        """True when Step 2 resolved at least one cycle."""
        return bool(self.resolutions)

    @property
    def abort_free(self) -> bool:
        """True when every found deadlock was resolved without any abort
        (the paper's headline TDR-2 feature)."""
        return self.deadlock_found and not self.aborted


class _DetectionRun:
    """State of a single detector activation (one period).

    ``roots`` restricts the Step-2 walk to the given start vertices (the
    continuous companion searches only from the transaction that just
    blocked); the periodic algorithm walks from every transaction.
    ``states`` is the table's waiting structure when the caller has
    already scanned it.

    :func:`detect_once` runs Steps 1-3 on a table in place.  A routed pass
    (:mod:`repro.lockmgr.detection_pass`) runs Steps 1-2 on a copy with
    :meth:`stage`, then Step 3 once, against the live state, through
    :meth:`confirm`.
    """

    def __init__(
        self,
        table: LockTable,
        costs: CostTable,
        roots: Optional[List[int]] = None,
        allow_tdr2: bool = True,
        observer=None,
        states: Optional[List[ResourceState]] = None,
    ) -> None:
        self._table = table
        self._costs = costs
        self._roots = roots
        self._allow_tdr2 = allow_tdr2
        self._states = states
        self.tst: Optional[TST] = None
        self._abortion_list: List[int] = []
        self._change_list: List[str] = []
        self.result = DetectionResult()
        #: Optional callable ``observer(event, **info)`` invoked at every
        #: step of the Step-2 walk and Step-3 confirmation — the tracing
        #: facility of :mod:`repro.core.trace`.
        self._observer = observer

    def execute(self) -> DetectionResult:
        if self.stage():
            table = self._table
            self.confirm(
                functools.partial(scheduler.release_all, table),
                functools.partial(scheduler.sweep, table),
                self._change_list,
            )
        return self.result

    def stage(self) -> bool:
        """Steps 1-2; False (and nothing built) when nobody is blocked."""
        states = self._states
        if states is None and self._table.blocked_count():
            states = self._table.waiting_resources()
        if not states:
            return False
        # Step 1: the TST, straight from the waiting resources.
        tst = self.tst = TST(self._table, states)
        self.result.stats.transactions = len(tst.entries)
        self.result.stats.edges_total = tst.edge_count
        self._step2_detect_and_select()
        return True

    # -- Step 2 -----------------------------------------------------------

    def _step2_detect_and_select(self) -> None:
        entries = self.tst.entries
        observe = self._observer
        roots = self._roots if self._roots is not None else sorted(entries)
        examined = backtracks = 0
        for root in roots:
            if root not in entries:
                continue
            if observe is not None:
                observe("root", tid=root)
            entries[root].ancestor = ROOT
            v = root
            while v != ROOT:
                record = entries[v]
                current = record.current
                if current is None:
                    parent = record.ancestor
                    record.ancestor = OFF_PATH
                    backtracks += 1
                    if observe is not None:
                        observe("backtrack", tid=v, parent=parent)
                    v = parent
                    continue
                edge = record.waited[current]
                examined += 1
                target = edge.target
                if observe is not None:
                    observe("examine", tid=v, target=target, label=edge.label)
                head = entries[target] if target else None
                if head is None or head.current is None:
                    current += 1  # advance; nil once exhausted
                    record.current = (
                        current if current < len(record.waited) else None
                    )
                elif head.ancestor != OFF_PATH:
                    if observe is not None:
                        observe("cycle-found", tid=v, closes=target)
                    self._victim_selection(v, target)
                    v = target
                else:
                    head.ancestor = v
                    if observe is not None:
                        observe("descend", tid=v, target=target)
                    v = target
        self.result.stats.edges_examined += examined
        self.result.stats.backtrack_steps += backtracks

    def _victim_selection(self, v: int, w: int) -> None:
        """A cycle was closed by the edge ``v -> w`` (``w`` on the current
        path).  Read the cycle off the ancestor chain, apply TDR with the
        minimum-cost candidate, clear the backtracked ancestors."""
        entries = self.tst.entries
        chain = [v]
        walk = v
        while walk != w:
            walk = entries[walk].ancestor
            if walk in (OFF_PATH, ROOT) and walk != w:
                raise ReproError(
                    "ancestor chain from T{} broke before reaching "
                    "T{}".format(v, w)
                )
            chain.append(walk)
        chain.reverse()  # cycle order: w, ..., v

        # Each chain vertex's ``current`` edge is the one the walk took
        # (it never advances ``current`` when descending).
        cycle_edges = []
        for tid in chain:
            record = entries[tid]
            cycle_edges.append(record.waited[record.current])
        candidates = candidates_for_cycle(
            cycle_edges, self._table.existing, self._costs
        )
        stats = self.result.stats
        stats.cycles_found += 1
        for candidate in candidates:
            if candidate.kind == "reposition":
                stats.tdr2_applicable += 1
                if not self._allow_tdr2:
                    candidates = [c for c in candidates if c.kind == "abort"]
                break
        chosen = select_victim(candidates)
        self.result.resolutions.append(
            Resolution(cycle=chain, candidates=candidates, chosen=chosen)
        )

        if self._observer is not None:
            self._observer("victim", cycle=list(chain), chosen=chosen)
        if chosen.kind == "abort":
            entries[chosen.tid].current = None  # TDR-1 kills the victim
            self._abortion_list.append(chosen.tid)
            stats.tdr1_applied += 1
        else:
            self._apply_tdr2(chosen)

        for tid in chain:
            if tid != w:
                entries[tid].ancestor = OFF_PATH

    def _apply_tdr2(self, chosen: RepositionCandidate) -> None:
        scheduler.reposition_queue(
            self._table, chosen.rid, list(chosen.av), list(chosen.st)
        )
        self.tst.retarget_queue_edges(chosen.rid)
        for tid in chosen.st:
            self._costs.apply_delay_penalty(tid)
        for tid in chosen.av:
            self.tst.entries[tid].current = None  # Lemma 4.1
        self._change_list.append(chosen.rid)
        self.result.stats.tdr2_applied += 1
        self.result.repositions.append(
            Repositioned(rid=chosen.rid, delayed=tuple(chosen.st))
        )

    # -- Step 3 -----------------------------------------------------------

    def confirm(
        self,
        abort: Callable[[int], Optional[List[Granted]]],
        sweep: Callable[[str], List[Granted]],
        changed: List[str],
    ) -> None:
        """Step 3 wherever the resolutions land: ``abort(tid)`` frees a
        victim and returns its grants, or ``None`` when the victim is no
        longer blocked where Step 1 saw it (a routed pass only; spared);
        ``sweep(rid)`` grants at each repositioned resource in ``changed``."""
        result, observe = self.result, self._observer
        granted_tids: Set[int] = set()
        for tid in reversed(self._abortion_list):
            if tid in granted_tids:
                if observe is not None:
                    observe("spare", tid=tid)
                result.spared.append(tid)
                continue
            if observe is not None:
                observe("abort", tid=tid)
            events = abort(tid)
            if events is None:
                result.spared.append(tid)
                continue
            result.grants.extend(events)
            for event in events:
                granted_tids.add(event.tid)
            result.aborted.append(tid)
            self._costs.forget(tid)
        for rid in changed:
            result.grants.extend(sweep(rid))


def detect_once(
    table: LockTable,
    costs: Optional[CostTable] = None,
    *,
    roots: Optional[List[int]] = None,
    allow_tdr2: bool = True,
    observer=None,
) -> DetectionResult:
    """Run Steps 1–3 once, in place on ``table``.

    Without ``roots`` this is the periodic pass (the walk starts at every
    transaction); with ``roots`` the walk starts only there — the
    continuous companion's rooted check passes the transaction that just
    blocked.  Pass the same ``costs`` on every call so TDR-2 delay
    penalties accumulate as the paper intends.  ``allow_tdr2=False`` is
    the A2 ablation (every deadlock costs an abort); ``observer(event,
    **info)`` sees every step of the walk and of Step 3
    (:func:`repro.core.trace.trace_detection`).
    """
    return _DetectionRun(
        table,
        costs if costs is not None else CostTable(),
        roots=roots,
        allow_tdr2=allow_tdr2,
        observer=observer,
    ).execute()
