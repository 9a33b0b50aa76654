"""The cluster backend: cluster-vs-sharded equivalence checking.

The lockstep driver (:mod:`repro.check.lockstep`) with a single-process
:class:`~repro.lockmgr.sharded.ShardedLockCore` (``shards=N``) as the
reference and a :class:`~repro.cluster.local.LocalCluster` — N worker
cores behind the coordinator, all plans and replies round-tripped
through the wire codec — as the subject.  Beyond the driver's
comparisons, every coordinator pass's forensics record must agree with
the pass result (the ``incident`` oracle).

The pass reads the waiting structure only, so those *outputs* are what
the driver compares.  ``audit=True`` adds the full-table check the
pre-sparse detector implied — the cluster's merged lock table renders
byte-identical to the single-process sharded table (same resources,
same holder/queue order: the shared first-lock counter at work) — after
every transition; it walks every row of every worker, so only the
nightly sweep turns it on.

This is the process-boundary analogue of :mod:`repro.check.sharded`:
that backend argues shards don't change the algorithm; this one argues
the wire doesn't either.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster.local import LocalCluster
from ..lockmgr.sharded import ShardedLockCore
from ..sim.workload import Program
from .lockstep import LockstepModel, Worlds
from .oracles import check_detection, check_incidents

#: Worker counts the scheduler may pick for the cluster side (>1 —
#: the 1-worker cluster *is* a sharded core behind JSON).
WORKER_CHOICES = (2, 3, 4)


class ClusterModel(LockstepModel):
    """Explorable lockstep comparison of cluster and sharded cores."""

    backend = "cluster"
    names = ("sharded", "cluster")

    def __init__(
        self,
        programs: List[Program],
        workers: Optional[int] = None,
        audit: bool = False,
        **kwargs
    ) -> None:
        # ``continuous`` is ignored: the cluster only runs the periodic
        # coordinator pass.
        super().__init__(programs, **kwargs)
        self.workers = workers
        self.audit = audit

    def open(self, scheduler):
        workers = self.workers
        if workers is None:
            workers = scheduler.choose(list(WORKER_CHOICES), "workers")
        # The periodic policy, as in the sharded backend.
        return Worlds(
            LocalCluster(workers=workers),
            ShardedLockCore(shards=workers),
            tag="workers={}".format(workers),
            workers=workers,
        )

    def check_pass(self, worlds, result, deadlocked_before, table):
        failures = check_detection(result, deadlocked_before, table)
        # The coordinator pass just ran through the wire dialect: its
        # forensics record must agree with the pass result.
        worlds.stats.incident_checks += 1
        failures.extend(check_incidents(result, worlds.subject.incidents))
        return failures

    def check_world(self, worlds, table):
        if not self.audit:
            return []
        return self._compare(
            worlds, "merged table",
            "\n{}\n".format(worlds.reference.table),
            "\n{}\n".format(table),
        )
