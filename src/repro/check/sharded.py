"""The sharded backend: sharded-vs-monolithic equivalence checking.

:class:`EquivalenceModel` drives the *same* generated transaction
programs through two managers in lockstep — the monolithic
:class:`~repro.lockmgr.manager.LockManager` as the reference and a
:class:`~repro.lockmgr.sharded.ShardedLockCore` with a
scheduler-chosen shard count as the subject — and asserts after every
transition that the two worlds agree:

* every ``lock`` returns the same granted/blocked outcome;
* every actor is blocked in one world iff it is blocked in the other,
  at the same resource, holding the same locks in the same modes;
* every ``finish`` enables the same set of grants;
* every periodic pass finds the same cycles, applies the same TDR-1/
  TDR-2 resolutions in the same order, aborts and spares the same
  victims, repositions the same queues and enables the same grants.

That last point is the heart of the refactor's correctness argument:
the cross-shard pass snapshots each shard's waiting resources, merges
the pieces into one RST in global first-lock order and runs the
unchanged Section-5 machinery — so on a quiescent system (which the
explorer's virtual scheduler guarantees between transitions) its
observable outcome must be *identical* to the monolithic detector's,
down to the Step-2 walk counters.  Any divergence — a reordered
merge, a mis-routed resolution, a stale-confirmation bug — fails the
``equivalence`` oracle with the decision trace pointing at the
schedule.

The usual state oracles also run against the sharded side's merged
table view, so the structural invariants and Theorem 1 are checked on
the partitioned representation too.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.hw_twbg import build_graph
from ..core.victim import AbortCandidate, RepositionCandidate
from ..lockmgr.manager import LockManager
from ..lockmgr.sharded import ShardedLockCore
from ..sim.workload import Program
from .concurrent import ScheduleResult, _Actor
from .oracles import (
    OracleFailure,
    OracleStats,
    check_detection,
    check_state,
)
from .schedule import VirtualScheduler

#: Shard counts the scheduler may pick for the subject manager (>1 —
#: the 1-shard case *is* the reference).
SHARD_CHOICES = (2, 3, 4, 8)


def _grant_key(event) -> Tuple[int, str, str, bool]:
    return (event.tid, event.rid, event.mode.name, event.immediate)


def _chosen_summary(chosen) -> Tuple:
    if isinstance(chosen, AbortCandidate):
        return ("abort", chosen.tid, chosen.rid)
    if isinstance(chosen, RepositionCandidate):
        return (
            "reposition",
            chosen.rid,
            tuple(chosen.av),
            tuple(chosen.st),
        )
    return ("none",)


def _detection_summary(result) -> Dict[str, object]:
    """The observable outcome of one pass, order-sensitive where the
    algorithm is (cycles, candidate sets, victims, repositionings) and
    order-free where it is not (grant events, spared victims).  ``walk``
    is defined over the waiting structure on every backend, so it stays
    an equality too."""
    stats = result.stats
    return {
        "cycles": [list(r.cycle) for r in result.resolutions],
        "candidates": [
            [_chosen_summary(c) + (c.cost,) for c in r.candidates]
            for r in result.resolutions
        ],
        "chosen": [_chosen_summary(r.chosen) for r in result.resolutions],
        "aborted": list(result.aborted),
        "spared": sorted(result.spared),
        "repositions": [
            (event.rid, tuple(event.delayed))
            for event in result.repositions
        ],
        "grants": sorted(_grant_key(event) for event in result.grants),
        "walk": (
            stats.transactions,
            stats.edges_total,
            stats.edges_examined,
            stats.cycles_found,
            stats.tdr1_applied,
            stats.tdr2_applied,
            stats.backtrack_steps,
        ),
    }


class EquivalenceModel:
    """Explorable lockstep comparison of the two manager cores."""

    backend = "sharded"

    def __init__(
        self,
        programs: List[Program],
        continuous: bool = False,
        max_steps: int = 400,
        restart_limit: int = 2,
        shards: Optional[int] = None,
    ) -> None:
        # Continuous detection is a single-shard feature; the backend
        # always compares the periodic pass (the refactor's new path).
        self.programs = programs
        self.max_steps = max_steps
        self.restart_limit = restart_limit
        self.shards = shards

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        shards = self.shards
        if shards is None:
            shards = scheduler.choose(list(SHARD_CHOICES), "shards")
        # Pinned to the periodic policy: this backend explores sharding
        # equivalence; the policy backend owns policy variation (and the
        # REPRO_POLICY CI leg must not change what is compared here).
        reference = LockManager(policy="periodic")
        subject = ShardedLockCore(shards=shards, policy="periodic")
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
            "shards": shards,
        }
        stats = OracleStats()
        result = ScheduleResult(ok=True, steps=0, counters=counters,
                                oracle_stats=stats)

        def equivalence(detail: str) -> OracleFailure:
            return OracleFailure(
                "equivalence",
                "shards={}: {}".format(shards, detail),
            )

        def compare_actor(tid: int) -> List[OracleFailure]:
            failures: List[OracleFailure] = []
            ref_blocked = reference.table.blocked_at(tid)
            sub_blocked = subject.blocked_at(tid)
            if ref_blocked != sub_blocked:
                failures.append(equivalence(
                    "T{} blocked at {!r} monolithic but {!r} "
                    "sharded".format(tid, ref_blocked, sub_blocked)
                ))
            ref_held = reference.holding(tid)
            sub_held = subject.holding(tid)
            if ref_held != sub_held:
                failures.append(equivalence(
                    "T{} holds {} monolithic but {} sharded".format(
                        tid, ref_held, sub_held
                    )
                ))
            if reference.was_aborted(tid) != subject.was_aborted(tid):
                failures.append(equivalence(
                    "T{} aborted flag diverged (monolithic={}, "
                    "sharded={})".format(
                        tid, reference.was_aborted(tid),
                        subject.was_aborted(tid),
                    )
                ))
            return failures

        def compare_world() -> List[OracleFailure]:
            failures: List[OracleFailure] = []
            for actor in actors:
                failures.extend(compare_actor(actor.tid))
            ref_rids = sorted(reference.table.resource_ids())
            sub_rids = sorted(subject.table.resource_ids())
            if ref_rids != sub_rids:
                failures.append(equivalence(
                    "locked resources diverged: monolithic {} vs "
                    "sharded {}".format(ref_rids, sub_rids)
                ))
            return failures

        def transition_step(actor: _Actor) -> List[OracleFailure]:
            access = actor.program.accesses[actor.pc]
            ref = reference.lock(actor.tid, access.rid, access.mode)
            sub = subject.lock(actor.tid, access.rid, access.mode)
            failures: List[OracleFailure] = []
            if ref.granted != sub.granted:
                failures.append(equivalence(
                    "lock T{} {} {} granted={} monolithic but {} "
                    "sharded".format(
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
                    "finish T{} granted {} monolithic but {} "
                    "sharded".format(tid, ref_grants, sub_grants)
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
            deadlocked_before = build_graph(
                subject.table.snapshot()
            ).has_cycle()
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
                        "detection {} diverged: monolithic {} vs "
                        "sharded {}".format(
                            key, ref_summary[key], sub_summary[key]
                        )
                    ))
            sharding = sub_result.sharding
            if sharding is not None and (
                sharding.stale_victims or sharding.stale_repositions
            ):
                # The explorer is single-threaded: nothing can move
                # between snapshot and resolution, so nothing may ever
                # be considered stale.
                failures.append(equivalence(
                    "quiescent pass reported stale resolutions "
                    "({} victims, {} repositions)".format(
                        sharding.stale_victims,
                        sharding.stale_repositions,
                    )
                ))
            failures.extend(
                check_detection(
                    sub_result, deadlocked_before, subject.table
                )
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
                transitions, "sharded@{}".format(step)
            )
            failures = apply()
            stats.state_checks += 1
            stats.equivalence_checks += 1
            failures.extend(check_state(subject.table))
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
