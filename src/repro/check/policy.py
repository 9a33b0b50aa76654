"""The policy backend: detection-policy conformance checking.

Two kinds of schedule run here, chosen by the scheduler (so both get
explored under every workload seed), both on the lockstep driver
(:mod:`repro.check.lockstep`):

* **Equivalence arms** (``periodic``, ``predict``, ``adaptive``) —
  the *policy-equivalence oracle*.  The reference is a
  ``LockManager(policy="periodic")`` (the paper's Section-5 behaviour),
  the subject a ``LockManager(policy=<arm>)``.  This is the policy
  layer's "default provably unchanged" proof obligation: ``periodic``
  must be bit-for-bit the old behaviour, and the observe-only
  policies (``predict`` warns, ``adaptive`` tunes timing knobs the
  explorer never consults) must never perturb a single observable
  outcome — nor run block-time detection.

* **The nowait arm** — the *deadlock-freedom oracle*.  One
  ``LockManager(policy="nowait")`` runs the programs alone; after
  every transition the H/W-TWBG must be acyclic (the ordered
  ``wait_is_ordered`` rule makes waits follow the resource order, so
  no cycle can ever close), and a periodic pass — still a schedulable
  transition — must find nothing and abort nobody.  Every abort the
  world does see must be a block-time policy abort carrying the
  nowait abort reason, never a detector victimisation.
"""

from __future__ import annotations

from typing import List

from ..core.hw_twbg import build_graph
from ..lockmgr.manager import LockManager
from ..policy.nowait import ABORT_REASON
from ..sim.workload import Program
from .lockstep import LockstepModel, ScheduleResult, Worlds
from .schedule import VirtualScheduler

#: Arms the scheduler may pick: the three observe-only policies run
#: the lockstep equivalence comparison; ``nowait`` runs the
#: deadlock-freedom world.
ARM_CHOICES = ("periodic", "predict", "adaptive", "nowait")


class PolicyModel(LockstepModel):
    """Explorable conformance check of the detection-policy layer."""

    backend = "policy"

    def __init__(
        self, programs: List[Program], arm: str = None, **kwargs
    ) -> None:
        # ``continuous`` is ignored: the continuous policy is pinned by
        # the concurrent and service backends already; this backend
        # owns the three new policies and the periodic default.
        super().__init__(programs, **kwargs)
        self.arm = arm

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        arm = self.arm
        if arm is None:
            arm = scheduler.choose(list(ARM_CHOICES), "policy-arm")
        kind = NoWaitArm if arm == "nowait" else EquivalenceArm
        return kind(self, arm).run(scheduler)


class _Arm(LockstepModel):
    """One arm of a :class:`PolicyModel`, with its step budgets."""

    backend = "policy"

    def __init__(self, model: PolicyModel, arm: str) -> None:
        super().__init__(
            model.programs,
            max_steps=model.max_steps,
            restart_limit=model.restart_limit,
        )
        self.arm = arm


class EquivalenceArm(_Arm):
    """``LockManager(policy=arm)`` against the periodic default."""

    oracle = "policy-equivalence"
    names = ("default", "under the policy")

    def open(self, scheduler):
        return Worlds(
            LockManager(policy=self.arm),
            LockManager(),
            tag="policy={}".format(self.arm),
        )

    def after_lock(self, worlds, actor, access):
        if worlds.subject.last_detection is None:
            return []
        # An observe-only policy must never run block-time detection:
        # the default leaves last_detection None.
        return [self.failure(
            worlds,
            "policy ran block-time detection on T{} {}".format(
                actor.tid, access.rid
            ),
        )]


class NoWaitArm(_Arm):
    """One ``nowait`` world, alone: the deadlock-freedom oracle."""

    label = "nowait"
    oracle = "nowait-deadlock-free"

    def open(self, scheduler):
        return Worlds(
            LockManager(policy="nowait"), tag="nowait", nowait_aborts=0
        )

    def on_block(self, worlds, actor):
        manager = worlds.subject
        if not manager.was_aborted(actor.tid):
            return super().on_block(worlds, actor)
        # The policy refused the out-of-order wait and aborted the
        # requester at block time; the recover transition picks the
        # actor up next step.
        worlds.counters["nowait_aborts"] += 1
        detection = manager.last_detection
        if getattr(detection, "abort_reason", "") != ABORT_REASON:
            return [self.failure(
                worlds,
                "T{} was aborted without the nowait abort "
                "reason".format(actor.tid),
            )]
        return []

    def check_pass(self, worlds, result, deadlocked_before, table):
        if result.deadlock_found or result.aborted:
            return [self.failure(
                worlds,
                "a periodic pass over the nowait world found work "
                "(deadlock_found={}, aborted={})".format(
                    result.deadlock_found, result.aborted
                ),
            )]
        return []

    def check_world(self, worlds, table):
        if build_graph(table.snapshot()).has_cycle():
            return [self.failure(
                worlds, "the ordered-wait rule admitted a wait cycle"
            )]
        return []
