"""The routed detection pass over partitioned in-process cores.

What is left of the cluster after its multi-process half was measured
and removed (``docs/CLUSTER.md`` has the verdict).  The paper's
algorithm is centralized, and one server process ran faster than two
worker processes on every measured pair.  What stays is the routed
pass as an oracle:

* :mod:`repro.cluster.coordinator` — the pass itself: gather every
  worker core's waiting-structure snapshot, merge them into one
  H/W-TWBG, run the **unchanged** Section-5 machinery, and route each
  resolution back to the owning core with the same staleness re-checks
  the sharded core applies.
* :mod:`repro.cluster.local` — :class:`LocalCluster`, N in-process
  cores bound to that coordinator through wire-encoded payloads, used
  by the ``cluster`` explorer backend, the sparse-pass equivalence
  suite and the benchmark's ``detect_ballast`` lane.
"""

from .coordinator import (
    ClusterDetection,
    ClusterPass,
    apply_resolution_plan,
    merge_snapshots,
    run_cluster_pass,
    worker_of,
)
from .local import LocalCluster

__all__ = [
    "ClusterDetection",
    "ClusterPass",
    "LocalCluster",
    "apply_resolution_plan",
    "merge_snapshots",
    "run_cluster_pass",
    "worker_of",
]
