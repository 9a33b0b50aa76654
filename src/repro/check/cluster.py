"""The cluster backend: cluster-vs-sharded equivalence checking.

:class:`ClusterModel` drives the same generated transaction programs
through a :class:`~repro.cluster.local.LocalCluster` (N worker cores
behind the coordinator, all plans and replies JSON round-tripped — the
exact wire dialect) and a single-process
:class:`~repro.lockmgr.sharded.ShardedLockCore` with ``shards=N`` as
the reference, asserting after every transition that the two worlds
agree:

* every ``lock`` returns the same granted/blocked outcome, and every
  actor is blocked at the same resource holding the same locks;
* every ``finish`` enables the same grants;
* every coordinator pass finds the same cycles with the same candidate
  sets, applies the same TDR-1/TDR-2 resolutions in the same order,
  aborts and spares the same victims, repositions the same queues,
  enables the same grants, and — the explorer being single-threaded,
  hence quiescent — never reports a stale resolution.

The pass reads the waiting structure only, so those *outputs* are what
the oracle compares.  ``audit=True`` adds the full-table check the
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

from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.local import LocalCluster
from ..lockmgr.sharded import ShardedLockCore
from ..sim.workload import Program
from .concurrent import ScheduleResult, _Actor
from .oracles import (
    OracleFailure,
    OracleStats,
    check_detection,
    check_incidents,
    check_state,
)
from .schedule import VirtualScheduler
from .sharded import _detection_summary, _grant_key

#: Worker counts the scheduler may pick for the cluster side (>1 —
#: the 1-worker cluster *is* a sharded core behind JSON).
WORKER_CHOICES = (2, 3, 4)


class ClusterModel:
    """Explorable lockstep comparison of cluster and sharded cores."""

    backend = "cluster"

    def __init__(
        self,
        programs: List[Program],
        continuous: bool = False,
        max_steps: int = 400,
        restart_limit: int = 2,
        workers: Optional[int] = None,
        audit: bool = False,
    ) -> None:
        # ``continuous`` is accepted for builder symmetry; the cluster
        # only runs the periodic coordinator pass.
        self.programs = programs
        self.max_steps = max_steps
        self.restart_limit = restart_limit
        self.workers = workers
        self.audit = audit

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        workers = self.workers
        if workers is None:
            workers = scheduler.choose(list(WORKER_CHOICES), "workers")
        # Pinned to the periodic policy: this backend explores *sharding*
        # equivalence; the policy backend owns policy variation (and the
        # REPRO_POLICY CI leg must not change what is compared here).
        reference = ShardedLockCore(shards=workers, policy="periodic")
        subject = LocalCluster(workers=workers, policy="periodic")
        actors = [
            _Actor("a{}".format(i), program, tid=i + 1)
            for i, program in enumerate(self.programs)
        ]
        next_tid = len(actors) + 1
        counters: Dict[str, int] = {
            "grants": 0,
            "blocks": 0,
            "commits": 0,
            "aborts": 0,
            "detects": 0,
            "restarts": 0,
            "workers": workers,
        }
        stats = OracleStats()
        result = ScheduleResult(ok=True, steps=0, counters=counters,
                                oracle_stats=stats)

        def equivalence(detail: str) -> OracleFailure:
            return OracleFailure(
                "equivalence",
                "workers={}: {}".format(workers, detail),
            )

        def compare_world() -> List[OracleFailure]:
            failures: List[OracleFailure] = []
            for actor in actors:
                tid = actor.tid
                ref_blocked = reference.blocked_at(tid)
                sub_blocked = subject.blocked_at(tid)
                if ref_blocked != sub_blocked:
                    failures.append(equivalence(
                        "T{} blocked at {!r} sharded but {!r} "
                        "cluster".format(tid, ref_blocked, sub_blocked)
                    ))
                if reference.holding(tid) != subject.holding(tid):
                    failures.append(equivalence(
                        "T{} holds {} sharded but {} cluster".format(
                            tid, reference.holding(tid),
                            subject.holding(tid),
                        )
                    ))
                if reference.was_aborted(tid) != subject.was_aborted(tid):
                    failures.append(equivalence(
                        "T{} aborted flag diverged (sharded={}, "
                        "cluster={})".format(
                            tid, reference.was_aborted(tid),
                            subject.was_aborted(tid),
                        )
                    ))
            if not self.audit:
                return failures
            ref_text = str(reference.table)
            sub_text = str(subject.merged_table())
            if ref_text != sub_text:
                failures.append(equivalence(
                    "merged table diverged:\nsharded:\n{}\n"
                    "cluster:\n{}".format(ref_text, sub_text)
                ))
            return failures

        def transition_step(actor: _Actor) -> List[OracleFailure]:
            access = actor.program.accesses[actor.pc]
            ref = reference.lock(actor.tid, access.rid, access.mode)
            sub = subject.lock(actor.tid, access.rid, access.mode)
            failures: List[OracleFailure] = []
            if ref.granted != sub.granted:
                failures.append(equivalence(
                    "lock T{} {} {} granted={} sharded but {} "
                    "cluster".format(
                        actor.tid, access.rid, access.mode.name,
                        ref.granted, sub.granted,
                    )
                ))
            if ref.granted:
                counters["grants"] += 1
                actor.pc += 1
            else:
                counters["blocks"] += 1
                actor.pending = True
            return failures

        def transition_resume(actor: _Actor) -> List[OracleFailure]:
            actor.pending = False
            actor.pc += 1
            return []

        def finish_both(tid: int) -> List[OracleFailure]:
            ref_grants = sorted(
                _grant_key(event) for event in reference.finish(tid)
            )
            sub_grants = sorted(
                _grant_key(event) for event in subject.finish(tid)
            )
            if ref_grants != sub_grants:
                return [equivalence(
                    "finish T{} granted {} sharded but {} "
                    "cluster".format(tid, ref_grants, sub_grants)
                )]
            return []

        def transition_commit(actor: _Actor) -> List[OracleFailure]:
            failures = finish_both(actor.tid)
            counters["commits"] += 1
            actor.done = True
            return failures

        def transition_recover(actor: _Actor) -> List[OracleFailure]:
            failures = finish_both(actor.tid)
            counters["aborts"] += 1
            actor.pending = False
            if actor.restarts >= self.restart_limit:
                actor.done = True
                return failures
            actor.restarts += 1
            counters["restarts"] += 1
            nonlocal next_tid
            actor.tid = next_tid
            next_tid += 1
            actor.pc = 0
            return failures

        def transition_detect() -> List[OracleFailure]:
            deadlocked_before = subject.deadlocked()
            ref_result = reference.detect()
            sub_result = subject.detect()
            counters["detects"] += 1
            stats.detection_checks += 1
            failures: List[OracleFailure] = []
            ref_summary = _detection_summary(ref_result)
            sub_summary = _detection_summary(sub_result)
            for key in ref_summary:
                if ref_summary[key] != sub_summary[key]:
                    failures.append(equivalence(
                        "detection {} diverged: sharded {} vs "
                        "cluster {}".format(
                            key, ref_summary[key], sub_summary[key]
                        )
                    ))
            info = sub_result.cluster
            if info is not None and (
                info.stale_victims or info.stale_repositions
            ):
                # Single-threaded exploration: nothing can move between
                # snapshot and resolution, so nothing may go stale.
                failures.append(equivalence(
                    "quiescent pass reported stale resolutions "
                    "({} victims, {} repositions)".format(
                        info.stale_victims, info.stale_repositions,
                    )
                ))
            if info is not None and info.unreachable_workers:
                failures.append(equivalence(
                    "in-process pass reported unreachable workers "
                    "{}".format(info.unreachable_workers)
                ))
            failures.extend(
                check_detection(
                    sub_result, deadlocked_before, subject.merged_table()
                )
            )
            # The coordinator pass just ran through the wire dialect:
            # its forensics record must agree with the pass result.
            stats.incident_checks += 1
            failures.extend(
                check_incidents(sub_result, subject.incidents)
            )
            return failures

        for step in range(self.max_steps):
            transitions: List[
                Tuple[str, Callable[[], List[OracleFailure]]]
            ] = []
            alive = 0
            for actor in actors:
                if actor.done:
                    continue
                alive += 1
                name = actor.name
                if reference.was_aborted(actor.tid):
                    transitions.append(
                        ("recover:" + name,
                         lambda a=actor: transition_recover(a))
                    )
                elif actor.pending:
                    if not reference.is_blocked(actor.tid):
                        transitions.append(
                            ("resume:" + name,
                             lambda a=actor: transition_resume(a))
                        )
                elif actor.pc < actor.program.size:
                    transitions.append(
                        ("step:" + name, lambda a=actor: transition_step(a))
                    )
                else:
                    transitions.append(
                        ("commit:" + name,
                         lambda a=actor: transition_commit(a))
                    )
            if any(actor.pending and not actor.done for actor in actors):
                transitions.append(("detect", transition_detect))
            if alive == 0:
                result.steps = step
                return result
            if not transitions:
                result.ok = False
                result.steps = step
                result.failure = OracleFailure(
                    "progress",
                    "{} actors alive but no transition enabled (all "
                    "blocked with nothing to wake them)".format(alive),
                    step=step,
                )
                return result

            label, apply = scheduler.choose(
                transitions, "cluster@{}".format(step)
            )
            failures = apply()
            stats.state_checks += 1
            stats.equivalence_checks += 1
            failures.extend(check_state(subject.merged_table()))
            failures.extend(compare_world())
            if failures:
                stats.failures += len(failures)
                result.ok = False
                result.steps = step + 1
                result.failure = failures[0].located(step, label)
                return result

        if any(not actor.done for actor in actors):
            result.ok = False
            result.steps = self.max_steps
            result.failure = OracleFailure(
                "progress",
                "schedule did not drain within {} steps".format(
                    self.max_steps
                ),
                step=self.max_steps,
            )
        else:
            result.steps = self.max_steps
        return result
