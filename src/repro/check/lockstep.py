"""The lockstep driver: one actor loop for every ``LockCore`` backend.

Each actor runs one generated transaction program (lock, lock, …,
commit) against a *subject* :class:`~repro.lockmgr.contract.LockCore`
and, when the backend opens one, a *reference* core stepped in lockstep
with it.  A blocked actor parks until a sweep grants it, a victim
recovers by releasing everything and (a bounded number of times)
restarting under a fresh id, and the periodic detector is a transition
like any other — so *when the detector fires relative to blocks and
releases* is a scheduling decision the explorer controls, which is
precisely the nondeterminism a wall-clock daemon thread hides.

After every transition the state oracles run on the subject's table;
with a reference present the two worlds must also agree on everything
observable: every ``lock`` outcome, every actor's blocked-at / holdings
/ aborted flag, the set of locked resources, every ``finish``'s grants
and every pass's :func:`detection_summary` down to the Step-2 walk
counters.  The explorer is single-threaded, hence quiescent between
transitions, so a routed pass may never report a stale resolution or an
unreachable partition either.  A schedule that cannot move while actors
are alive, or does not drain within the step budget, fails the
``progress`` oracle.

A backend (:mod:`.concurrent`, :mod:`.sharded`, :mod:`.cluster`,
:mod:`.policy`) is a :class:`LockstepModel` subclass that declares its
worlds in :meth:`~LockstepModel.open` and overrides only the oracle
hooks that are its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.victim import AbortCandidate, RepositionCandidate
from ..lockmgr.contract import LockCore
from ..sim.workload import Program
from .oracles import (
    OracleFailure,
    OracleStats,
    check_detection,
    check_state,
)
from .schedule import VirtualScheduler


@dataclass
class ScheduleResult:
    """Outcome of one explored schedule."""

    ok: bool
    steps: int
    failure: Optional[OracleFailure] = None
    counters: Dict[str, int] = field(default_factory=dict)
    oracle_stats: OracleStats = field(default_factory=OracleStats)

    def summary(self) -> str:
        if self.ok:
            return "ok ({} steps)".format(self.steps)
        return str(self.failure)

    def fail(self, failure: OracleFailure, steps: int) -> "ScheduleResult":
        """Mark the schedule failed after ``steps`` transitions."""
        self.ok = False
        self.steps = steps
        self.failure = failure
        return self


def stuck(alive: int, step: int) -> OracleFailure:
    """The ``progress`` failure of a schedule that cannot move."""
    return OracleFailure(
        "progress",
        "{} actors alive but no transition enabled (all blocked with "
        "nothing to wake them)".format(alive),
        step=step,
    )


def undrained(max_steps: int) -> OracleFailure:
    """The ``progress`` failure of a schedule out of step budget."""
    return OracleFailure(
        "progress",
        "schedule did not drain within {} steps".format(max_steps),
        step=max_steps,
    )


class _Actor:
    """One logical transaction thread working through a program."""

    __slots__ = ("name", "program", "tid", "pc", "pending", "done", "restarts")

    def __init__(self, name: str, program: Program, tid: int) -> None:
        self.name = name
        self.program = program
        self.tid = tid
        self.pc = 0
        self.pending = False  # issued a request and blocked on it
        self.done = False
        self.restarts = 0


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


def detection_summary(result) -> Dict[str, object]:
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


class Worlds:
    """What a backend opens for one schedule: the subject core, the
    optional reference stepped beside it, the ``tag`` that prefixes its
    divergence messages and the schedule's counters (the common six plus
    any ``extra`` the backend reports)."""

    def __init__(
        self,
        subject: LockCore,
        reference: Optional[LockCore] = None,
        tag: str = "",
        **extra: int,
    ) -> None:
        self.subject = subject
        self.reference = reference
        #: The core whose view enables transitions: the reference when
        #: there is one (the subject is *checked* against it, never
        #: trusted to drive).
        self.lead = subject if reference is None else reference
        self.tag = tag
        self.counters: Dict[str, int] = dict(
            grants=0, blocks=0, commits=0, aborts=0, detects=0,
            restarts=0, **extra
        )
        self.stats = OracleStats()
        self.actors: List[_Actor] = []
        self.next_tid = 1


class LockstepModel:
    """Explorable model of logical threads over one or two lock cores."""

    #: Report name, and the scheduler label prefix unless ``label`` differs.
    backend = ""
    label = ""
    #: Oracle name of a divergence, and how its messages call the worlds.
    oracle = "equivalence"
    names = ("reference", "subject")

    def __init__(
        self,
        programs: List[Program],
        continuous: bool = False,
        max_steps: int = 400,
        restart_limit: int = 2,
    ) -> None:
        self.programs = programs
        self.continuous = continuous
        self.max_steps = max_steps
        self.restart_limit = restart_limit

    # -- what a backend declares -------------------------------------------

    def open(self, scheduler: VirtualScheduler) -> Worlds:
        """Build this schedule's worlds; any up-front scheduler choice
        (shard count, worker count, policy arm) is made here."""
        raise NotImplementedError

    def periodic(self) -> bool:
        """Whether ``detect`` is a schedulable transition."""
        return True

    def after_lock(self, worlds: Worlds, actor: _Actor, access) -> List[OracleFailure]:
        """Backend oracles on the ``lock`` the subject just answered."""
        return []

    def on_block(self, worlds: Worlds, actor: _Actor) -> List[OracleFailure]:
        """The request was not granted: park the actor."""
        worlds.counters["blocks"] += 1
        actor.pending = True
        return []

    def check_pass(
        self, worlds: Worlds, result, deadlocked_before: bool, table
    ) -> List[OracleFailure]:
        """Oracles on the subject's pass (Theorem 4.1 / TDR-2)."""
        return check_detection(result, deadlocked_before, table)

    def check_world(self, worlds: Worlds, table) -> List[OracleFailure]:
        """Backend oracles after every transition."""
        return []

    # -- divergence ----------------------------------------------------------

    def failure(self, worlds: Worlds, detail: str) -> OracleFailure:
        return OracleFailure(
            self.oracle, "{}: {}".format(worlds.tag, detail)
        )

    def _compare(self, worlds: Worlds, what: str, ref, sub) -> List[OracleFailure]:
        if ref == sub:
            return []
        return [self.failure(worlds, "{}: {} {} but {} {}".format(
            what, ref, self.names[0], sub, self.names[1]
        ))]

    def _compare_worlds(self, worlds: Worlds, table) -> List[OracleFailure]:
        reference, subject = worlds.reference, worlds.subject
        failures: List[OracleFailure] = []
        for actor in worlds.actors:
            tid = actor.tid
            for what, ref, sub in (
                ("blocked at", reference.blocked_at(tid),
                 subject.blocked_at(tid)),
                ("holds", reference.holding(tid), subject.holding(tid)),
                ("aborted flag", reference.was_aborted(tid),
                 subject.was_aborted(tid)),
            ):
                failures.extend(self._compare(
                    worlds, "T{} {}".format(tid, what), ref, sub
                ))
        failures.extend(self._compare(
            worlds, "locked resources",
            sorted(reference.table.resource_ids()),
            sorted(table.resource_ids()),
        ))
        return failures

    # -- transitions ---------------------------------------------------------

    def _step(self, worlds: Worlds, actor: _Actor) -> List[OracleFailure]:
        access = actor.program.accesses[actor.pc]
        request = (actor.tid, access.rid, access.mode)
        failures: List[OracleFailure] = []
        if worlds.reference is None:
            granted = worlds.subject.lock(*request).granted
        else:
            granted = worlds.reference.lock(*request).granted
            failures.extend(self._compare(
                worlds,
                "lock T{} {} {} granted".format(
                    actor.tid, access.rid, access.mode.name
                ),
                granted, worlds.subject.lock(*request).granted,
            ))
        failures.extend(self.after_lock(worlds, actor, access))
        if granted:
            worlds.counters["grants"] += 1
            actor.pc += 1
        else:
            failures.extend(self.on_block(worlds, actor))
        return failures

    def _resume(self, worlds: Worlds, actor: _Actor) -> List[OracleFailure]:
        actor.pending = False
        actor.pc += 1
        return []

    def _finish(self, worlds: Worlds, tid: int) -> List[OracleFailure]:
        if worlds.reference is None:
            worlds.subject.finish(tid)
            return []
        return self._compare(
            worlds, "finish T{} granted".format(tid),
            sorted(_grant_key(e) for e in worlds.reference.finish(tid)),
            sorted(_grant_key(e) for e in worlds.subject.finish(tid)),
        )

    def _commit(self, worlds: Worlds, actor: _Actor) -> List[OracleFailure]:
        failures = self._finish(worlds, actor.tid)
        worlds.counters["commits"] += 1
        actor.done = True
        return failures

    def _recover(self, worlds: Worlds, actor: _Actor) -> List[OracleFailure]:
        failures = self._finish(worlds, actor.tid)
        worlds.counters["aborts"] += 1
        actor.pending = False
        if actor.restarts >= self.restart_limit:
            actor.done = True
            return failures
        actor.restarts += 1
        worlds.counters["restarts"] += 1
        actor.tid = worlds.next_tid
        worlds.next_tid += 1
        actor.pc = 0
        return failures

    def _detect(self, worlds: Worlds) -> List[OracleFailure]:
        subject = worlds.subject
        deadlocked_before = subject.deadlocked()
        failures: List[OracleFailure] = []
        if worlds.reference is not None:
            expected = detection_summary(worlds.reference.detect())
        result = subject.detect()
        worlds.counters["detects"] += 1
        worlds.stats.detection_checks += 1
        if worlds.reference is not None:
            summary = detection_summary(result)
            for key in expected:
                failures.extend(self._compare(
                    worlds, "detection " + key, expected[key], summary[key]
                ))
        info = result.routing
        if info is not None:
            if info.stale_victims or info.stale_repositions:
                failures.append(self.failure(
                    worlds,
                    "quiescent pass reported stale resolutions "
                    "({} victims, {} repositions)".format(
                        info.stale_victims, info.stale_repositions
                    ),
                ))
            if info.unreachable_workers:
                failures.append(self.failure(
                    worlds,
                    "in-process pass reported unreachable workers "
                    "{}".format(info.unreachable_workers),
                ))
        failures.extend(self.check_pass(
            worlds, result, deadlocked_before, subject.table
        ))
        return failures

    # -- the loop --------------------------------------------------------------

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        worlds = self.open(scheduler)
        lead, stats = worlds.lead, worlds.stats
        actors = worlds.actors = [
            _Actor("a{}".format(i), program, tid=i + 1)
            for i, program in enumerate(self.programs)
        ]
        worlds.next_tid = len(actors) + 1
        result = ScheduleResult(ok=True, steps=0, counters=worlds.counters,
                                oracle_stats=stats)
        label = (self.label or self.backend) + "@{}"

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
                if lead.was_aborted(actor.tid):
                    transitions.append(
                        ("recover:" + name,
                         lambda a=actor: self._recover(worlds, a))
                    )
                elif actor.pending:
                    if not lead.is_blocked(actor.tid):
                        transitions.append(
                            ("resume:" + name,
                             lambda a=actor: self._resume(worlds, a))
                        )
                elif actor.pc < actor.program.size:
                    transitions.append(
                        ("step:" + name,
                         lambda a=actor: self._step(worlds, a))
                    )
                else:
                    transitions.append(
                        ("commit:" + name,
                         lambda a=actor: self._commit(worlds, a))
                    )
            if self.periodic() and any(
                actor.pending and not actor.done for actor in actors
            ):
                transitions.append(("detect", lambda: self._detect(worlds)))
            if alive == 0:
                result.steps = step
                return result
            if not transitions:
                return result.fail(stuck(alive, step), step)

            chosen, apply = scheduler.choose(transitions, label.format(step))
            failures = apply()
            stats.state_checks += 1
            table = worlds.subject.table
            failures.extend(check_state(table, stats))
            if worlds.reference is not None:
                stats.equivalence_checks += 1
                failures.extend(self._compare_worlds(worlds, table))
            failures.extend(self.check_world(worlds, table))
            if failures:
                stats.failures += len(failures)
                return result.fail(
                    failures[0].located(step, chosen), step + 1
                )

        result.steps = self.max_steps
        if any(not actor.done for actor in actors):
            result.fail(undrained(self.max_steps), self.max_steps)
        return result
