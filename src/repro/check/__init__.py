"""repro.check — deterministic schedule exploration for the lock stack.

A mini model checker for the interleaving-dependent layers that the
sequential test suites cannot reach: the concurrent lock manager's
block/wake/timeout paths and the lock service's parked waiters, lease
reaping and frame-delivery races.

The pieces:

* :mod:`repro.check.schedule` — the virtual scheduler.  Every
  nondeterministic choice in a run (who steps next, when the detector
  fires, which fault to inject) is funnelled through one ``choose``
  call, driven by a seeded RNG, a bounded-exhaustive enumerator or a
  recorded decision list (replay).
* :mod:`repro.check.oracles` — step oracles checked after **every**
  transition: the structural table invariants
  (:func:`repro.core.verify.verify_table`), Theorem 1 (H/W-TWBG cycle ⟺
  stuck-transaction deadlock), UPR/Theorem 3.1, the detection-pass
  contract (Theorem 4.1, TDR-2 abort-free) and the service-level
  session/ownership invariants.
* :mod:`repro.check.lockstep` — the one actor loop for every backend
  written against the :class:`~repro.lockmgr.contract.LockCore`
  contract: logical transactions over a subject core and, optionally,
  a reference core stepped in lockstep and compared on every
  observable.  The backends are short declarations on top of it:
  :mod:`repro.check.concurrent` (one
  :class:`~repro.lockmgr.sharded.ShardedLockCore`, periodic or
  continuous), :mod:`repro.check.sharded` (N shards vs one),
  :mod:`repro.check.cluster` (``LocalCluster`` vs ``ShardedLockCore``,
  plus the incident oracle) and :mod:`repro.check.policy` (the
  policy-equivalence arms and the ``nowait`` deadlock-freedom arm).
* :mod:`repro.check.service` — client sessions over the real
  :class:`~repro.service.core.ServiceCore` under a virtual clock with
  frame reordering, timed-out-retry, duplicate-commit, lease-expiry,
  mid-run disconnect and server-restart faults (a different model:
  sessions, not bare transactions).
* :mod:`repro.check.races` — scripted two-thread schedules over the
  real one-shard :class:`~repro.lockmgr.sharded.ShardedLockManager`,
  sequenced by events rather than sleeps (the wakeup/timeout race).
* :mod:`repro.check.artifact` — failing schedules persist as compact
  seed+decision-list JSON artifacts that replay byte-for-byte and
  shrink by prefix.
* :mod:`repro.check.runner` — the explorer: ``python -m repro check``.
"""

from .artifact import Artifact, load_artifact, replay_artifact, save_artifact
from .oracles import OracleFailure
from .runner import CheckConfig, CheckReport, run_check
from .schedule import (
    RandomChooser,
    ReplayChooser,
    ReplayDivergence,
    VirtualClock,
    VirtualScheduler,
    enumerate_schedules,
)

__all__ = [
    "Artifact",
    "CheckConfig",
    "CheckReport",
    "OracleFailure",
    "RandomChooser",
    "ReplayChooser",
    "ReplayDivergence",
    "VirtualClock",
    "VirtualScheduler",
    "enumerate_schedules",
    "load_artifact",
    "replay_artifact",
    "run_check",
    "save_artifact",
]
