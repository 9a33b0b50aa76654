"""The service backend: client sessions over the real ``ServiceCore``.

This model drives the exact code the network server runs — sessions,
leases, ownership, parked waits, the pump — through the synchronous
:class:`~repro.service.core.ServiceCore`, with the asyncio shell
replaced by explicit, schedulable events:

* **frame delivery** — which client's next request reaches the writer
  first is a decision, so cross-session reordering (network delay) is
  explored for free;
* **wake delivery** — a parked ``lock`` resolution is *not* applied
  when the pump resolves it but parked as a pending reply whose
  delivery is its own transition (the reply frame in flight);
* **timed-out retry** — a parked actor may give up
  (:meth:`~repro.service.core.ServiceCore.cancel_wait`) and re-issue
  the lock later, exercising the request-stays-queued resume path;
* **duplicate frames** — a commit reply lost on the wire means the
  client re-sends the commit; a duplicated lock frame for a parked
  transaction must be rejected (``already-waiting``) without damage;
* **lease expiry** — the virtual clock jumps past the earliest session
  deadline and the reaper runs, aborting the session's transactions
  mid-flight;
* **disconnect** — a session drops rudely at an arbitrary point
  (including mid-detection, between a pass choosing a victim and the
  client learning of it);
* **server restart** — the whole service dies (``kill -9``) and a
  replacement rebuilds itself from the session journal
  (:func:`~repro.service.journal.recover_into`): the session-survival
  oracle (:func:`~repro.check.oracles.check_recovery`) demands a
  byte-identical table, surviving live leases, no resurrected
  sessions — then the surviving clients resume by token and re-send
  their in-flight requests against the replica.

Fault transitions are budgeted per schedule so that adversarial
scheduling stays finite: with budgets exhausted the system must drain,
which turns the step budget into a genuine progress oracle.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Dict, List, Optional, Tuple

from ..core.hw_twbg import build_graph
from ..core.modes import parse_mode
from ..core.serialize import table_to_dict
from ..service.core import ParkedWait, ServiceCore, Session
from ..service.journal import SessionJournal, recover_into
from ..service.protocol import ServiceError, request
from ..service.wire import codec_for, resolve_wire, wire_roundtrip
from ..sim.workload import Program
from .lockstep import ScheduleResult, stuck, undrained
from .oracles import (
    OracleFailure,
    OracleStats,
    check_detection,
    check_incidents,
    check_recovery,
    check_service,
    check_spans,
    check_state,
)
from .schedule import VirtualClock, VirtualScheduler


class _Client:
    """One modelled client transaction: a program, a session, and the
    client-side view of its in-flight request."""

    __slots__ = (
        "name", "program", "session", "tid", "pc", "parked",
        "done", "restarts", "timeouts",
    )

    def __init__(self, name: str, program: Program) -> None:
        self.name = name
        self.program = program
        self.session: Optional[Session] = None
        self.tid: Optional[int] = None
        self.pc = 0
        self.parked: Optional[ParkedWait] = None
        self.done = False
        self.restarts = 0
        self.timeouts = 0


class ServiceModel:
    """Explorable model of lock-service clients (see module docstring)."""

    backend = "service"

    def __init__(
        self,
        programs: List[Program],
        sessions: int = 2,
        continuous: bool = False,
        faults: bool = True,
        lease: float = 10.0,
        max_steps: int = 600,
        restart_limit: int = 2,
        timeout_limit: int = 2,
        wire=None,
    ) -> None:
        self.programs = programs
        self.session_count = max(1, sessions)
        self.continuous = continuous
        self.faults = faults
        self.lease = lease
        self.max_steps = max_steps
        self.restart_limit = restart_limit
        self.timeout_limit = timeout_limit
        #: The wire dialect lock frames round-trip through before the
        #: core sees them (default: ``REPRO_WIRE``, i.e. JSON) — the
        #: explorer's proof that a schedule replays identically under
        #: either codec.
        self.codec = codec_for(resolve_wire(wire))

    def run(self, scheduler: VirtualScheduler) -> ScheduleResult:
        clock = VirtualClock()
        # Deterministic tokens and an in-memory journal: the virtual
        # clock doubles as the wall clock, so journaled lease deadlines
        # are schedulable facts rather than wall-time races.
        tokens = itertools.count(1)
        token_source = lambda: "tok{}".format(next(tokens))  # noqa: E731
        core = ServiceCore(
            continuous=self.continuous,
            # Deadlock-staging schedules need the detector lanes; the
            # policy backend owns policy variation.
            policy=None if self.continuous else "periodic",
            lease=self.lease,
            clock=clock,
            journal=SessionJournal(),
            wall=clock,
            token_source=token_source,
        )
        sessions = [
            core.open_session() for _ in range(self.session_count)
        ]
        clients = [
            _Client("c{}".format(i), program)
            for i, program in enumerate(self.programs)
        ]
        for i, client in enumerate(clients):
            client.session = sessions[i % len(sessions)]
            client.tid = core.begin_step(client.session)

        budgets = {
            "expiry": 1 if self.faults else 0,
            "disconnect": 1 if self.faults else 0,
            "dup-commit": 1 if self.faults else 0,
            "dup-lock": 1 if self.faults else 0,
            "restart": 1 if self.faults else 0,
        }
        last_commit: List[Tuple[Session, int]] = []
        counters: Dict[str, int] = {
            "grants": 0, "blocks": 0, "commits": 0, "aborts": 0,
            "detects": 0, "restarts": 0, "timeouts": 0,
            "expiries": 0, "disconnects": 0, "server_restarts": 0,
        }
        stats = OracleStats()
        result = ScheduleResult(ok=True, steps=0, counters=counters,
                                oracle_stats=stats)

        def restart(client: _Client) -> None:
            """Give a client a fresh transaction (or retire it)."""
            counters["aborts"] += 1
            client.parked = None
            if client.restarts >= self.restart_limit:
                client.done = True
                return
            client.restarts += 1
            counters["restarts"] += 1
            if client.session.closed:
                client.session = core.open_session()
                sessions.append(client.session)
            client.tid = core.begin_step(client.session)
            client.pc = 0

        def deliver_lock(client: _Client) -> List[OracleFailure]:
            access = client.program.accesses[client.pc]
            # The model's wire: the lock frame crosses the configured
            # codec (encode+decode) exactly as a socket delivery would,
            # so a binary-codec run replays the same schedule the JSON
            # run does — or the oracles catch the difference.
            frame = wire_roundtrip(
                request(
                    0,
                    "lock",
                    tid=client.tid,
                    rid=access.rid,
                    mode=access.mode.name,
                ),
                self.codec,
            )
            core.touch_session(client.session)
            status, _event, parked = core.lock_step(
                client.session,
                frame["tid"],
                frame["rid"],
                parse_mode(frame["mode"]),
            )
            if status == "granted":
                counters["grants"] += 1
                client.pc += 1
            elif status == "parked":
                counters["blocks"] += 1
                client.parked = parked
            elif status == "aborted":
                core.finish_step(client.session, client.tid, aborting=True)
                restart(client)
            return []

        def deliver_commit(client: _Client) -> List[OracleFailure]:
            core.touch_session(client.session)
            core.finish_step(client.session, client.tid, aborting=False)
            counters["commits"] += 1
            last_commit.append((client.session, client.tid))
            del last_commit[:-1]
            client.done = True
            return []

        def deliver_wake(client: _Client) -> List[OracleFailure]:
            status = client.parked.status
            client.parked = None
            if status == "granted":
                client.pc += 1
            else:  # aborted: acknowledge, then restart
                if not client.session.closed:
                    core.finish_step(
                        client.session, client.tid, aborting=True
                    )
                restart(client)
            return []

        def client_timeout(client: _Client) -> List[OracleFailure]:
            status = core.cancel_wait(client.tid, client.parked)
            client.timeouts += 1
            counters["timeouts"] += 1
            if status == "timeout":
                # Request still queued; the client will re-send the
                # lock frame and resume the same queue position.
                client.parked = None
            elif status == "granted":
                client.parked = None
                client.pc += 1
            else:
                client.parked = None
                if not client.session.closed:
                    core.finish_step(
                        client.session, client.tid, aborting=True
                    )
                restart(client)
            return []

        def reconnect(client: _Client) -> List[OracleFailure]:
            restart(client)
            return []

        def abort_ack(client: _Client) -> List[OracleFailure]:
            core.finish_step(client.session, client.tid, aborting=True)
            restart(client)
            return []

        def detect() -> List[OracleFailure]:
            deadlocked_before = build_graph(
                core.manager.table.snapshot()
            ).has_cycle()
            detection = core.detect_step()
            counters["detects"] += 1
            stats.detection_checks += 1
            failures = check_detection(
                detection, deadlocked_before, core.manager.table
            )
            # Forensics: a resolving pass must leave a valid incident
            # record matching what it did.
            stats.incident_checks += 1
            failures.extend(check_incidents(detection, core.incidents))
            return failures

        def expire() -> List[OracleFailure]:
            deadline = core.next_deadline()
            budgets["expiry"] -= 1
            counters["expiries"] += 1
            clock.advance_to(deadline + 0.01)
            core.expire_sessions()
            return []

        def disconnect(session: Session) -> List[OracleFailure]:
            budgets["disconnect"] -= 1
            counters["disconnects"] += 1
            core.close_session(session)
            return []

        def dup_commit() -> List[OracleFailure]:
            session, tid = last_commit[0]
            budgets["dup-commit"] -= 1
            if not session.closed:
                core.finish_step(session, tid, aborting=False)
            return []

        def dup_lock(client: _Client) -> List[OracleFailure]:
            access = client.program.accesses[client.pc]
            budgets["dup-lock"] -= 1
            try:
                core.lock_step(
                    client.session, client.tid, access.rid, access.mode
                )
            except ServiceError:
                return []  # already-waiting: the contract
            return [
                OracleFailure(
                    "service",
                    "duplicate lock frame for parked T{} was not "
                    "rejected".format(client.tid),
                )
            ]

        def server_restart() -> List[OracleFailure]:
            """kill -9 the service; a replica recovers from the journal.

            The durable prefix is exactly the appended records (an
            in-memory journal has no torn tail), so the replica's table
            must be byte-identical and every live lease must survive.
            Clients then resume: parked waits are forgotten client-side
            (the reply future died with the connection) and the next
            enabled transition re-sends the in-flight lock frame, which
            lands on the replayed queue position.
            """
            nonlocal core
            budgets["restart"] -= 1
            counters["server_restarts"] += 1
            now = clock()
            before = json.dumps(
                table_to_dict(core.manager.table), sort_keys=True
            )
            # Survival is judged by the *durable* expiry: a renew the
            # throttle had not yet journaled is legitimately lost with
            # the crash (in this model the virtual clock makes the two
            # deadlines coincide, so nothing is lost).
            expected = {
                sid: sorted(session.tids)
                for sid, session in core.sessions.items()
                if not session.closed and now <= session.journaled_expiry
            }
            journal = SessionJournal.from_records(core.journal.records())
            replica = ServiceCore(
                continuous=self.continuous,
                policy=None if self.continuous else "periodic",
                lease=self.lease,
                clock=clock,
                journal=None,
                wall=clock,
                token_source=token_source,
            )
            recover_into(replica, journal, now=now)
            stats.recovery_checks += 1
            failures = check_recovery(before, replica, expected)
            core = replica
            # Rewire the model's client-side state to the replica.
            by_sid = {s.sid: s for s in replica.sessions.values()}
            sessions[:] = list(by_sid.values())
            del last_commit[:]  # dup-commit must not target dead Sessions
            for client in clients:
                if client.done:
                    continue
                client.parked = None
                survivor = by_sid.get(client.session.sid)
                if survivor is None:
                    # Reaped or closed before the crash: mark the
                    # client's view closed so the reconnect transition
                    # fires and opens a fresh session on the replica.
                    stale = Session(
                        client.session.sid, client.session.lease, now
                    )
                    stale.closed = True
                    client.session = stale
                else:
                    client.session = survivor
            return failures

        for step in range(self.max_steps):
            transitions: List[
                Tuple[str, Callable[[], List[OracleFailure]]]
            ] = []
            alive = 0
            for client in clients:
                if client.done:
                    continue
                alive += 1
                name = client.name
                if client.session.closed:
                    transitions.append(
                        ("reconnect:" + name,
                         lambda c=client: reconnect(c))
                    )
                    continue
                if client.parked is not None:
                    if client.parked.status is not None:
                        transitions.append(
                            ("wake:" + name,
                             lambda c=client: deliver_wake(c))
                        )
                    elif client.timeouts < self.timeout_limit:
                        transitions.append(
                            ("timeout:" + name,
                             lambda c=client: client_timeout(c))
                        )
                    if (
                        budgets["dup-lock"] > 0
                        and client.parked.status is None
                    ):
                        transitions.append(
                            ("dup-lock:" + name,
                             lambda c=client: dup_lock(c))
                        )
                    continue
                if core.manager.was_aborted(client.tid):
                    # The abort beat the next frame to the server; the
                    # lock/commit frame will answer "aborted".  Deliver
                    # the abort acknowledgement directly.
                    transitions.append(
                        ("abort-ack:" + name,
                         lambda c=client: abort_ack(c))
                    )
                    continue
                if client.pc < client.program.size:
                    transitions.append(
                        ("lock:" + name, lambda c=client: deliver_lock(c))
                    )
                else:
                    transitions.append(
                        ("commit:" + name,
                         lambda c=client: deliver_commit(c))
                    )
            if not self.continuous and core.waiters:
                transitions.append(("detect", detect))
            if budgets["expiry"] > 0 and core.next_deadline() is not None:
                transitions.append(("expire-lease", expire))
            if budgets["disconnect"] > 0:
                for session in sessions:
                    if not session.closed and session.tids:
                        transitions.append(
                            ("disconnect:" + session.sid,
                             lambda s=session: disconnect(s))
                        )
                        break
            if budgets["dup-commit"] > 0 and last_commit:
                transitions.append(("dup-commit", dup_commit))
            if budgets["restart"] > 0:
                transitions.append(("server-restart", server_restart))

            if alive == 0:
                result.steps = step
                # Fully drained: every request-lifecycle span must have
                # reached a terminal state (the completeness oracle).
                stats.span_checks += 1
                span_failures = check_spans(core.telemetry)
                if span_failures:
                    stats.failures += len(span_failures)
                    result.ok = False
                    result.failure = span_failures[0].located(
                        step, "drain"
                    )
                return result
            if not transitions:
                return result.fail(stuck(alive, step), step)

            label, apply = scheduler.choose(
                transitions, "service@{}".format(step)
            )
            failures = apply()
            core.pump()
            stats.state_checks += 1
            stats.service_checks += 1
            failures.extend(check_state(core.manager.table, stats))
            failures.extend(check_service(core))
            if failures:
                stats.failures += len(failures)
                return result.fail(
                    failures[0].located(step, label), step + 1
                )

        result.steps = self.max_steps
        if any(not client.done for client in clients):
            result.fail(undrained(self.max_steps), self.max_steps)
        else:
            stats.span_checks += 1
            span_failures = check_spans(core.telemetry)
            if span_failures:
                stats.failures += len(span_failures)
                result.ok = False
                result.failure = span_failures[0].located(
                    self.max_steps, "drain"
                )
        return result
