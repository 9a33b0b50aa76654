"""One detector activation, written once.

Every periodic pass is the same sequence — snapshot the *waiting
structure*, merge, Steps 1–3, route the resolutions back with staleness
re-checks, forensics — and reads nothing else: the resources somebody
is blocked at (:meth:`LockTable.waiting_resources`).  Section 5's bound
O(n + e·(c'+1)) is over exactly that structure (ECR-1/2/3 need a blocked
request to draw an edge; the queues hold the W edges "all the time"), so
a pass costs what the waiting costs, however many idle locks there are.

:class:`DetectionPass` owns the sequence; a *binding* supplies its two
ends.  ``collect()`` returns ``(table, live)``: the waiting structure,
read by rid and in first-lock order, and whether it is the live table
(Steps 1–3 then resolve in place and nothing is routed).  Otherwise it
is a :class:`WaitingCopy`; Steps 1–2 stage on it and Step 3 runs once,
against the live state: ``reposition`` / ``abort`` / ``sweep`` apply
the staged resolutions, re-checking each against the live state;
``finish(result)`` hands the result to the host.  Bindings:
:class:`LiveBinding` (one table, in place: the single-shard core), the
shard binding of :class:`~repro.lockmgr.sharded.ShardedLockCore`
(copies taken and resolutions applied under each shard's mutex) and
the plan binding of :mod:`repro.cluster.coordinator` (``snapshot``
payloads and ``resolve`` plans over ``LocalTransport`` or the wire).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from ..core.requests import ResourceState
from ..core.victim import CostTable
from .events import Granted
from .lock_table import LockTable


class WaitingCopy(dict):
    """Copies of the waiting resources, rid -> state in first-lock order:
    all of a lock table that Steps 1–2 read (no transaction index)."""

    existing = dict.__getitem__

    def waiting_resources(self) -> List[ResourceState]:
        return list(self.values())


@dataclass
class PassInfo:
    """What a routed pass did beyond its detection result — attached as
    ``DetectionResult.routing`` by the sharded core's cross-shard pass
    and by the cluster coordinator's pass."""

    #: Partitions (shards or workers) the pass spans.
    parts: int
    #: Seconds each partition spent producing its slice (a shard: with
    #: its mutex held; a worker: self-reported).
    snapshot_seconds: List[float] = field(default_factory=list)
    #: Resources in the merged waiting structure.
    merged_resources: int = 0
    #: Cycles whose blocked resources span more than one partition.
    cross_part_cycles: int = 0
    #: Victims no longer blocked where the snapshot saw them (spared).
    stale_victims: int = 0
    #: TDR-2 repositionings whose live queue no longer matched.
    stale_repositions: int = 0
    #: Shards mutated between their snapshot and the resolution phase.
    epoch_drift: int = 0
    #: Coordinator passes: the trace id and pass-span ref minted for the
    #: pass (every routed plan carries them, so worker-side resolution
    #: spans and the incident record share one trace), the workers whose
    #: snapshot could not be fetched, and the whole pass's wall seconds.
    trace: Optional[str] = None
    span: Optional[str] = None
    unreachable_workers: List[int] = field(default_factory=list)
    pass_seconds: float = 0.0


class LiveBinding:
    """The pass on one live table, in place: ``guard`` is held
    throughout and ``finish`` absorbs the result into the host."""

    def __init__(
        self, table: LockTable, finish, guard=contextlib.nullcontext
    ) -> None:
        self.table, self.finish, self.guard = table, finish, guard
        self.info = PassInfo(parts=1)

    def collect(self):
        return self.table, True


class DetectionPass:
    """One pass over ``binding`` (see the module docstring).

    ``incidents`` (an :class:`~repro.obs.incidents.IncidentLog`) turns
    on forensics: :meth:`record` appends a ``repro.incident/1`` record
    for a resolving pass.  ``stamp()`` supplies the host's record fields
    (``source``, ``trace``/``span``/``epoch``/``timestamp``, and the
    coordinator's ``workers`` and routing fields) and is only called
    when a record is written.
    """

    def __init__(
        self,
        binding,
        costs: CostTable,
        policy,
        incidents=None,
        stamp: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.binding = binding
        self.costs = costs
        self.policy = policy
        self.incidents = incidents
        self.stamp = stamp
        self.result = None
        self._table_text: Optional[str] = None
        self._run = None

    def run(self):
        """Detect and resolve; returns the
        :class:`~repro.core.detection.DetectionResult`."""
        from ..core.detection import _DetectionRun

        binding, policy, info = self.binding, self.policy, self.binding.info
        with binding.guard():
            table, live = binding.collect()
            states = table.waiting_resources()
            info.merged_resources = len(states)
            # Whatever is read back after Steps 1-3 is captured first:
            # the detector resolves on ``table`` itself.
            if self.incidents is not None and states:
                self._table_text = "\n".join(map(str, states))
            started = perf_counter()
            run = self._run = _DetectionRun(
                table, self.costs, states=states, allow_tdr2=policy.allow_tdr2
            )
            routed = not live and run.stage()
            if live:
                run.execute()
            policy.observe_pass(run.result, perf_counter() - started)
            if info.parts > 1 and run.result.resolutions:
                part = {s.rid: binding.part_of(s.rid) for s in states}
                entries = run.tst.entries
                for resolution in run.result.resolutions:
                    info.cross_part_cycles += 1 < len(
                        {part[entries[tid].pr] for tid in resolution.cycle}
                    )
            if routed:
                self._route(run)
            self.result = run.result
            binding.finish(self.result)
        return self.result

    def _route(self, run) -> None:
        """Step 3 against the live state: the staged repositionings
        first (Step 2 applied them to the copy), then the victims newest
        first — one granted by an earlier victim's release is spared,
        one no longer blocked where the snapshot saw it is stale (spared
        and counted) — then the change-list sweeps of the repositionings
        that still applied.  The copy is never released or swept."""
        binding, info, result = self.binding, self.binding.info, run.result
        entries = run.tst.entries
        chosen = [
            resolution.chosen
            for resolution in result.resolutions
            if resolution.chosen.kind == "reposition"
        ]
        result.repositions, applied = [], []
        for candidate, event in zip(chosen, binding.reposition(chosen)):
            if event is None:
                info.stale_repositions += 1
            else:
                applied.append(candidate.rid)
                result.repositions.append(event)

        def abort(tid: int) -> Optional[List[Granted]]:
            grants = binding.abort(tid, entries[tid].pr)
            info.stale_victims += grants is None
            return grants

        run.confirm(abort, binding.sweep, applied)

    def record(self) -> None:
        """Write the forensics of the pass just run: one incident
        record when it resolved a deadlock and ``incidents`` is set."""
        from ..obs.incidents import build_incident

        result, sink = self.result, self.incidents
        if sink is not None and result.deadlock_found:
            entries = self._run.tst.entries
            sink.append(
                build_incident(
                    result,
                    table_text=self._table_text,
                    blocked_at={t: e.pr for t, e in entries.items() if e.pr},
                    policy=self.policy.name,
                    **self.stamp()
                )
            )
