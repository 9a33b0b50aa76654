"""The routed pass over in-process worker cores.

:class:`LocalCluster` wires N in-process
:class:`~repro.lockmgr.sharded.ShardedLockCore` worker cores (one
shard each) to the coordinator of :mod:`repro.cluster.coordinator`.
Snapshots, plans and replies round-trip through a wire codec, so
nothing crosses from a core to the coordinator that the wire could not
carry.  The cores share one first-lock sequence counter, which is what
keeps the merged waiting structure — and the full-table audit
:attr:`LocalCluster.table` — identical to a single
:class:`~repro.lockmgr.sharded.ShardedLockCore` fed the same request
stream (the property :mod:`repro.check.cluster` pins down).  It stays
as that oracle: the ``cluster`` explorer backend, the sparse-pass
equivalence suite and the benchmark's ``detect_ballast`` lane run it.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set

from ..core.detection import DetectionResult
from ..core.errors import LockTableError
from ..core.hw_twbg import HWTWBG, build_graph
from ..core.modes import LockMode
from ..core.victim import CostTable
from ..lockmgr.events import Granted
from ..lockmgr.lock_table import LockTable
from ..lockmgr.sharded import ShardedLockCore
from ..lockmgr import scheduler
from ..obs.incidents import IncidentLog
from ..service.wire import codec_for, resolve_wire, wire_roundtrip
from .coordinator import (
    apply_resolution_plan,
    run_cluster_pass,
    worker_of,
)


class LocalTransport:
    """Coordinator transport over in-process cores.

    Every payload, plan and reply round-trips through the configured
    wire codec so the in-process cluster speaks exactly the wire
    dialect — only shapes the wire can carry (string keys, lists, no
    tuples) reach the coordinator, for *either* framing: JSON re-parses
    through ``json``, binary encodes+decodes real v2 frames.
    """

    def __init__(self, cluster: "LocalCluster", wire="json") -> None:
        self._cluster = cluster
        self.codec = codec_for(resolve_wire(wire))
        #: Every ``(worker index, plan)`` this transport routed — the
        #: trace-propagation tests read the ``ctx`` the coordinator
        #: stamped on each plan.
        self.resolved_plans: List[Dict[str, Any]] = []

    def _wire(self, payload: Any) -> Any:
        return wire_roundtrip(payload, self.codec)

    def snapshot_all(self) -> List[Optional[Dict[str, Any]]]:
        return [
            self._wire(core.snapshot_payload())
            for core in self._cluster.cores
        ]

    def resolve(self, index: int, plan: Dict[str, Any]) -> Dict[str, Any]:
        plan = self._wire(plan)
        self.resolved_plans.append({"worker": index, "plan": plan})
        return self._wire(
            apply_resolution_plan(self._cluster.cores[index], plan)
        )


class LocalCluster:
    """N worker cores, one shared sequence counter, one coordinator.

    Each worker core owns a partition: the routing is
    ``crc32(rid) % workers``, with the same cross-worker Axiom-1 check the
    sharded core applies across shards, and the same periodic pass —
    driven synchronously, so the schedule explorer can single-step it.
    """

    def __init__(
        self,
        workers: int = 2,
        costs: Optional[CostTable] = None,
        incident_log: Optional[IncidentLog] = None,
        policy="periodic",
        wire="json",
    ) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        from ..policy import POLICIES, resolve_policy

        self.costs = costs if costs is not None else CostTable()
        #: Coordinator-side detection policy (pre-pass, observation);
        #: block-time policies also act on every worker core, so cores
        #: are built with the same policy *name* (each core binds its
        #: own instance).
        self.policy = resolve_policy(policy).bind(self)
        core_policy = (
            self.policy.name if self.policy.name in POLICIES else "periodic"
        )
        #: Deadlock forensics sink fed by every resolving pass; an
        #: in-memory ring by default so the explorer's incident oracle
        #: works unconfigured.
        self.incidents = (
            incident_log
            if incident_log is not None
            else IncidentLog(capacity=64)
        )
        self._counter = itertools.count()
        self.cores: List[ShardedLockCore] = [
            ShardedLockCore(
                shards=1,
                costs=self.costs,
                sequence_source=self._counter.__next__,
                policy=core_policy,
            )
            for _ in range(workers)
        ]
        #: tid -> worker indexes the transaction has touched.
        self._affinity: Dict[int, Set[int]] = {}
        self._transport = LocalTransport(self, wire=wire)

    # -- routing ---------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self.cores)

    @property
    def shard_count(self) -> int:
        """Cluster-wide partition count — tells the adaptive policy a
        multi-worker topology cannot switch to continuous mode."""
        return len(self.cores)

    def worker_index(self, rid: str) -> int:
        return worker_of(rid, len(self.cores))

    def core_for(self, rid: str) -> ShardedLockCore:
        return self.cores[self.worker_index(rid)]

    # -- the locking surface ---------------------------------------------

    def lock(self, tid: int, rid: str, mode: LockMode) -> scheduler.RequestOutcome:
        """Route one request to the owning worker core.

        Mirrors the client's view: an abort observed on *any* worker
        latches (the cluster client learns of a victimization from one
        worker and stops issuing for that transaction everywhere), and
        Axiom 1 holds cluster-wide, not merely per worker.
        """
        index = self.worker_index(rid)
        if self.was_aborted(tid):
            raise LockTableError(
                "transaction {} was aborted and cannot lock".format(tid)
            )
        blocked_rid = self.blocked_at(tid)
        if blocked_rid is not None and (
            self.worker_index(blocked_rid) != index
        ):
            raise LockTableError(
                "transaction {} is already blocked at {} and cannot "
                "also wait at {}".format(tid, blocked_rid, rid)
            )
        outcome = self.cores[index].lock(tid, rid, mode)
        self._affinity.setdefault(tid, set()).add(index)
        return outcome

    def finish(self, tid: int) -> List[Granted]:
        """End ``tid`` on every worker it touched, strict 2PL."""
        grants: List[Granted] = []
        for index in sorted(self._affinity.pop(tid, ())):
            grants.extend(self.cores[index].finish(tid))
        return grants

    # -- deadlock handling -----------------------------------------------

    def detect(self) -> DetectionResult:
        """One cross-worker periodic pass (the coordinator, inline)."""
        return run_cluster_pass(
            self._transport,
            len(self.cores),
            self.costs,
            incident_sink=self.incidents,
            policy=self.policy,
        )

    # -- introspection ---------------------------------------------------

    @property
    def table(self) -> LockTable:
        """The cluster-wide RST — every row of every worker, in
        first-lock order, rebuilt on each read.  A full-table audit: no
        pass reads this."""
        rows = [
            (core.sequence_of(state.rid), state.copy())
            for core in self.cores
            for state in core.table.resources()
        ]
        merged = LockTable()
        for _, state in sorted(rows, key=lambda row: row[0]):
            merged.install(state)
        return merged

    def blocked_at(self, tid: int) -> Optional[str]:
        for core in self.cores:
            rid = core.blocked_at(tid)
            if rid is not None:
                return rid
        return None

    def is_blocked(self, tid: int) -> bool:
        return self.blocked_at(tid) is not None

    def was_aborted(self, tid: int) -> bool:
        return any(core.was_aborted(tid) for core in self.cores)

    def holding(self, tid: int) -> Dict[str, LockMode]:
        held: Dict[str, LockMode] = {}
        for core in self.cores:
            held.update(core.holding(tid))
        return held

    def graph(self) -> HWTWBG:
        return build_graph(self.table.snapshot())

    def deadlocked(self) -> bool:
        return self.graph().has_cycle()

    def __str__(self) -> str:
        return str(self.table)
