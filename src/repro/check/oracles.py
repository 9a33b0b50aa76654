"""Step oracles: what must hold after every transition of a schedule.

Each oracle inspects live state (never a copy the model could have
forgotten to update) and returns a list of :class:`OracleFailure` —
empty when the property holds.  The explorer runs the state oracles
after *every* transition and the detection oracle after every detector
pass, so a violated theorem is caught at the exact step that introduced
it, with the decision trace pointing at the interleaving.

The properties are the paper's formal results plus the service-layer
bookkeeping the networked stack relies on:

* **table** — every structural invariant of
  :func:`repro.core.verify.verify_table` (total-mode cache, lock
  safety, UPR blocked prefix, Axiom 1, index agreement);
* **theorem-1** — the H/W-TWBG has a cycle iff the classic full
  wait-for-graph oracle sees a deadlock;
* **upr** (Theorem 3.1) — along any holder list, once one blocked
  conversion is non-grantable, no later one is grantable;
* **saturation** — a table whose every holder is blocked (the lock
  server's run-the-pass-now trigger) is deadlocked;
* **detection** (Theorem 4.1 / TDR-2) — a periodic pass leaves no
  cycle, never acts on a deadlock-free table, and when every cycle was
  resolved by queue repositioning the pass aborted nobody (the
  abort-free guarantee);
* **service** — sessions, ownership and parked waits agree with the
  lock table: no orphaned transactions, no parked wait for a
  granted/aborted transaction after a pump, closed sessions own
  nothing;
* **spans** — after a schedule fully drains, the telemetry span log is
  complete: every request-lifecycle span reached a terminal state
  (released/aborted/timed-out), no grant is still marked live, and no
  first-block timestamp is left pending;
* **recovery** — after a ``server-restart`` fault, the journal replay
  rebuilt a byte-identical RST/TST, every live lease survived with its
  transactions, no closed/expired session resurrected, and no lock
  survived without an owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..baselines.wfg import has_deadlock
from ..core.hw_twbg import build_graph
from ..core.verify import verify_table
from ..core.victim import AbortCandidate, RepositionCandidate
from ..lockmgr import scheduler
from ..lockmgr.lock_table import LockTable


@dataclass(frozen=True)
class OracleFailure:
    """One violated property: which oracle, what it saw, and where."""

    oracle: str
    detail: str
    step: Optional[int] = None
    transition: Optional[str] = None

    def __str__(self) -> str:
        place = ""
        if self.step is not None:
            place = " at step {}".format(self.step)
            if self.transition:
                place += " ({})".format(self.transition)
        return "[{}]{}: {}".format(self.oracle, place, self.detail)

    def located(self, step: int, transition: str) -> "OracleFailure":
        return OracleFailure(self.oracle, self.detail, step, transition)


def check_table(table: LockTable) -> List[OracleFailure]:
    """The library's own structural verifier, as an oracle."""
    return [
        OracleFailure("table", str(violation))
        for violation in verify_table(table)
    ]


def check_theorem1(table: LockTable) -> List[OracleFailure]:
    """H/W-TWBG cycle ⟺ wait-for-graph deadlock (Theorem 1)."""
    cyclic = build_graph(table.snapshot()).has_cycle()
    stuck = has_deadlock(table)
    if cyclic != stuck:
        return [
            OracleFailure(
                "theorem-1",
                "H/W-TWBG {} a cycle but the WFG oracle says the system "
                "is {}".format(
                    "has" if cyclic else "lacks",
                    "deadlocked" if stuck else "deadlock-free",
                ),
            )
        ]
    return []


def check_upr(table: LockTable) -> List[OracleFailure]:
    """Theorem 3.1: grantability is monotone along blocked conversions."""
    failures: List[OracleFailure] = []
    for state in table.resources():
        hit_nongrantable = False
        for holder in state.blocked_holders():
            grantable = scheduler.conversion_grantable(state, holder)
            if grantable and hit_nongrantable:
                failures.append(
                    OracleFailure(
                        "upr",
                        "{}: blocked conversion of T{} is grantable after "
                        "a non-grantable one (UPR ordering broken)".format(
                            state.rid, holder.tid
                        ),
                    )
                )
            if not grantable:
                hit_nongrantable = True
    return failures


def check_state(table: LockTable, stats=None) -> List[OracleFailure]:
    """All per-state oracles: table invariants, Theorem 1, UPR and — on
    a saturated table, counted in the :class:`OracleStats` ``stats`` —
    saturation ⇒ deadlock."""
    failures = check_table(table)
    failures.extend(check_theorem1(table))
    failures.extend(check_upr(table))
    if table.saturated():
        if stats is not None:
            stats.saturation_checks += 1
        if not has_deadlock(table):
            failures.append(OracleFailure(
                "saturation",
                "every lock holder is blocked, yet the WFG oracle sees "
                "no deadlock among {}".format(sorted(table.blocked_tids())),
            ))
    return failures


def check_detection(
    result, deadlocked_before: bool, table: LockTable
) -> List[OracleFailure]:
    """Contract of one periodic pass (Theorem 4.1, TDR-2 abort-free)."""
    failures: List[OracleFailure] = []
    if build_graph(table.snapshot()).has_cycle():
        failures.append(
            OracleFailure(
                "detection",
                "a cycle survived the periodic pass (Theorem 4.1)",
            )
        )
    if not deadlocked_before and (
        result.deadlock_found or result.aborted or result.repositions
    ):
        failures.append(
            OracleFailure(
                "detection",
                "pass acted on a deadlock-free table (aborted={}, "
                "repositions={})".format(
                    result.aborted,
                    [event.rid for event in result.repositions],
                ),
            )
        )
    if deadlocked_before and not result.deadlock_found:
        failures.append(
            OracleFailure(
                "detection",
                "table was deadlocked but the pass found no cycle",
            )
        )
    chose_abort = any(
        isinstance(resolution.chosen, AbortCandidate)
        for resolution in result.resolutions
    )
    all_repositioned = result.resolutions and all(
        isinstance(resolution.chosen, RepositionCandidate)
        for resolution in result.resolutions
    )
    if all_repositioned and result.aborted:
        failures.append(
            OracleFailure(
                "tdr2-abort-free",
                "every cycle was resolved by TDR-2 yet transactions {} "
                "were aborted".format(result.aborted),
            )
        )
    if not chose_abort and not all_repositioned and result.aborted:
        failures.append(
            OracleFailure(
                "tdr2-abort-free",
                "no TDR-1 candidate was chosen but {} aborted".format(
                    result.aborted
                ),
            )
        )
    if result.abort_free != (result.deadlock_found and not result.aborted):
        failures.append(
            OracleFailure(
                "tdr2-abort-free",
                "abort_free flag inconsistent with the pass outcome",
            )
        )
    return failures


def check_service(core) -> List[OracleFailure]:
    """Service bookkeeping vs the lock table (run after a pump)."""
    failures: List[OracleFailure] = []
    for tid, session in core.owners.items():
        if session.closed:
            failures.append(
                OracleFailure(
                    "service",
                    "T{} is owned by closed session {}".format(
                        tid, session.sid
                    ),
                )
            )
        if tid not in session.tids:
            failures.append(
                OracleFailure(
                    "service",
                    "owner map lists T{} under {} but the session does "
                    "not".format(tid, session.sid),
                )
            )
    for session in core.sessions.values():
        for tid in session.tids:
            if core.owners.get(tid) is not session:
                failures.append(
                    OracleFailure(
                        "service",
                        "session {} claims T{} but the owner map "
                        "disagrees".format(session.sid, tid),
                    )
                )
    table = core.manager.table
    owned = set(core.owners)
    for tid in table.active_tids():
        if tid not in owned and not core.manager.was_aborted(tid):
            failures.append(
                OracleFailure(
                    "service",
                    "T{} holds or waits in the lock table but no open "
                    "session owns it (leaked by a disconnect?)".format(tid),
                )
            )
    for tid, parked in core.waiters.items():
        if parked.status is not None:
            continue  # resolved, delivery pending
        if core.manager.was_aborted(tid):
            failures.append(
                OracleFailure(
                    "service",
                    "T{} is parked but already aborted (pump missed "
                    "it)".format(tid),
                )
            )
        elif not core.manager.is_blocked(tid):
            failures.append(
                OracleFailure(
                    "service",
                    "T{} is parked but not blocked (pump missed the "
                    "grant)".format(tid),
                )
            )
    return failures


def check_recovery(
    before_dump: str, core, expected_sessions
) -> List[OracleFailure]:
    """Session survival across a kill-and-restart (the ``server-restart``
    fault).

    ``before_dump`` is the canonical JSON dump of the pre-crash lock
    table, ``core`` the replica rebuilt from the journal, and
    ``expected_sessions`` maps each *live* pre-crash sid to the tids it
    owned.  Checks: the rebuilt RST/TST is byte-identical; every live
    lease survived with exactly its transactions; no closed or expired
    session resurrected; and every table-active transaction is either
    owned by a survivor or marked aborted.
    """
    import json

    from ..core.serialize import table_to_dict

    failures: List[OracleFailure] = []
    after_dump = json.dumps(
        table_to_dict(core.manager.table), sort_keys=True
    )
    if after_dump != before_dump:
        failures.append(
            OracleFailure(
                "recovery",
                "rebuilt lock table differs from the pre-crash table "
                "(journal replay is not byte-identical)",
            )
        )
    for sid, tids in expected_sessions.items():
        session = core.sessions.get(sid)
        if session is None or session.closed:
            failures.append(
                OracleFailure(
                    "recovery",
                    "live lease {} did not survive the restart".format(sid),
                )
            )
            continue
        if set(session.tids) != set(tids):
            failures.append(
                OracleFailure(
                    "recovery",
                    "session {} resumed with tids {} but owned {} before "
                    "the crash".format(
                        sid, sorted(session.tids), sorted(tids)
                    ),
                )
            )
    for sid in core.sessions:
        if sid not in expected_sessions:
            failures.append(
                OracleFailure(
                    "recovery",
                    "session {} resurrected: it was closed or expired "
                    "before the crash".format(sid),
                )
            )
    owned = set(core.owners)
    for tid in core.manager.table.active_tids():
        if tid not in owned and not core.manager.was_aborted(tid):
            failures.append(
                OracleFailure(
                    "recovery",
                    "T{} holds or waits in the rebuilt table but no "
                    "recovered session owns it (lock resurrected for a "
                    "dead session?)".format(tid),
                )
            )
    return failures


def check_spans(telemetry) -> List[OracleFailure]:
    """Span-lifecycle completeness (run once a schedule fully drains).

    With every transaction finished, the trace must hold no open span —
    each recorded lifecycle ended in a terminal state — and the wait
    bookkeeping must hold no pending first-block timestamp."""
    failures: List[OracleFailure] = []
    if not telemetry.enabled:
        return failures
    from ..obs.spans import LIFECYCLE_KINDS, TERMINAL_STATES

    for span in telemetry.trace.open_spans():
        failures.append(
            OracleFailure(
                "spans",
                "span {} (T{} {} {}) still open in state {!r} after "
                "drain".format(
                    span.span_id, span.tid, span.rid, span.mode,
                    span.status,
                ),
            )
        )
    for span in telemetry.trace.completed_spans():
        if span.kind not in LIFECYCLE_KINDS or span.unfinished:
            # Point-in-time annotation spans (detector passes, routed
            # resolutions) and capacity-evicted unfinished spans are
            # exempt from lifecycle completeness.
            continue
        if span.status not in TERMINAL_STATES:
            failures.append(
                OracleFailure(
                    "spans",
                    "completed span {} (T{} {}) ended in non-terminal "
                    "state {!r}".format(
                        span.span_id, span.tid, span.rid, span.status
                    ),
                )
            )
    pending = telemetry.pending_waits()
    if pending:
        failures.append(
            OracleFailure(
                "spans",
                "first-block timestamps still pending for T{} after "
                "drain".format(
                    ", T".join(str(tid) for tid in sorted(pending))
                ),
            )
        )
    return failures


def check_incidents(result, incident_log) -> List[OracleFailure]:
    """Incident-record consistency (run after every detection pass).

    A pass that resolved at least one cycle must have appended a valid
    ``repro.incident/1`` record whose victims, cycles and TRRP
    candidate sets match the pass result — so every abort the explorer
    observes has durable forensics explaining it."""
    failures: List[OracleFailure] = []
    if not result.deadlock_found:
        return failures
    from ..obs.incidents import candidate_to_dict, validate_incident

    records = incident_log.recent(1) if incident_log is not None else []
    if not records:
        return [
            OracleFailure(
                "incidents",
                "deadlock pass (aborted={}) left no incident "
                "record".format(result.aborted),
            )
        ]
    record = records[-1]
    for problem in validate_incident(record):
        failures.append(
            OracleFailure(
                "incidents", "invalid incident record: " + problem
            )
        )
    if sorted(record.get("aborted") or []) != sorted(result.aborted):
        failures.append(
            OracleFailure(
                "incidents",
                "incident aborted {} but the pass aborted {}".format(
                    record.get("aborted"), result.aborted
                ),
            )
        )
    expected_cycles = [
        [int(tid) for tid in resolution.cycle]
        for resolution in result.resolutions
    ]
    got_cycles = [
        entry.get("cycle") for entry in record.get("cycles") or []
    ]
    if expected_cycles != got_cycles:
        failures.append(
            OracleFailure(
                "incidents",
                "incident cycles {} but the pass resolved {}".format(
                    got_cycles, expected_cycles
                ),
            )
        )
    expected_candidates = [
        [
            candidate_to_dict(candidate)
            for candidate in resolution.candidates
        ]
        for resolution in result.resolutions
    ]
    got_candidates = [
        entry.get("candidates") for entry in record.get("cycles") or []
    ]
    if expected_candidates != got_candidates:
        failures.append(
            OracleFailure(
                "incidents",
                "incident TRRP candidate sets diverged from the pass "
                "result",
            )
        )
    expected_chosen = [
        candidate_to_dict(resolution.chosen)
        for resolution in result.resolutions
    ]
    got_chosen = [
        entry.get("chosen") for entry in record.get("cycles") or []
    ]
    if expected_chosen != got_chosen:
        failures.append(
            OracleFailure(
                "incidents",
                "incident chosen victims {} but the pass chose "
                "{}".format(got_chosen, expected_chosen),
            )
        )
    return failures


@dataclass
class OracleStats:
    """How many times each oracle ran over a whole exploration."""

    state_checks: int = 0
    detection_checks: int = 0
    service_checks: int = 0
    span_checks: int = 0
    equivalence_checks: int = 0
    recovery_checks: int = 0
    incident_checks: int = 0
    saturation_checks: int = 0  # states that were saturated
    failures: int = 0

    def absorb(self, other: "OracleStats") -> None:
        self.state_checks += other.state_checks
        self.detection_checks += other.detection_checks
        self.service_checks += other.service_checks
        self.span_checks += other.span_checks
        self.equivalence_checks += other.equivalence_checks
        self.recovery_checks += other.recovery_checks
        self.incident_checks += other.incident_checks
        self.saturation_checks += other.saturation_checks
        self.failures += other.failures
