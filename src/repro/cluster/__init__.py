"""Multi-process cluster: shard-per-process workers, one periodic detector.

PR 4 partitioned the lock table into shards, but every shard still
shared one interpreter lock.  This package promotes each partition to
its own worker **process**:

* :mod:`repro.cluster.worker` — the worker entry point: one
  :class:`~repro.service.server.LockServer` owning the
  ``crc32(rid) % N`` partition, detection disabled (the coordinator owns
  it), first-lock sequence numbers drawn from a shared cross-process
  counter so merged snapshots keep the cluster-wide first-lock order.
* :mod:`repro.cluster.supervisor` — spawns and monitors the workers,
  reaps dead ones, and runs the periodic cross-process
  detection-resolution pass on a cadence.
* :mod:`repro.cluster.coordinator` — the pass itself: gather worker
  snapshots (the ``snapshot`` wire op), merge them into one H/W-TWBG,
  run the **unchanged** Section-5 machinery, route resolutions back to
  the owning workers (the ``resolve`` wire op) with the same staleness
  re-checks the sharded manager applies.
* :mod:`repro.cluster.client` — :class:`ClusterLockManager`, a blocking
  client that routes each resource to its owning worker, so application
  code written against ``ShardedLockManager``/``RemoteLockManager``
  runs against a cluster unchanged.
* :mod:`repro.cluster.local` — :class:`LocalCluster`, the same topology
  without sockets (N in-process cores + the same coordinator), used by
  the ``cluster`` explorer backend and fast unit tests.
"""

from .coordinator import (
    ClusterDetection,
    ClusterPass,
    apply_resolution_plan,
    merge_snapshots,
    run_cluster_pass,
    worker_of,
)
from .client import ClusterLockManager
from .local import LocalCluster
from .supervisor import ClusterSupervisor

__all__ = [
    "ClusterDetection",
    "ClusterPass",
    "ClusterLockManager",
    "ClusterSupervisor",
    "LocalCluster",
    "apply_resolution_plan",
    "merge_snapshots",
    "run_cluster_pass",
    "worker_of",
]
