"""The session journal: WAL-style durability for the lock service.

A :class:`~repro.service.core.ServiceCore` is a deterministic state
machine driven by a strictly serial operation stream (the server's
single-writer rule).  That makes durability an *operation log* problem,
not a state-snapshot problem: append one record at every point the
core mutates the lock manager or the session table, and a restarted
server replays the log through the very same code paths to rebuild
RST/TST **byte-identically** — the merged-table dump of the recovered
core equals the dump of the crashed one at the last durable record.

Record kinds (one JSON object per line)::

    ("boot")                                  server (re)start marker
    ("open",   sid, token, lease, expires)    session admitted
    ("renew",  sid, expires)                  lease pushed out (throttled)
    ("close",  sid)                           session closed/expired/reaped
    ("begin",  sid, tid)                      transaction claimed
    ("lock",   sid, tid, rid, mode, seq)      manager.lock() invoked
    ("finish", sid, tid, ab)                  commit (ab=false) or abort
    ("batch",  sid, ops)                      a batch frame's sub-ops that
                                              mutated: [kind, *BATCH_FIELDS]
    ("detect", )                              periodic pass that resolved

``lock`` records carry the first-lock sequence number assigned to the
resource, so replay re-asserts the recorded iteration order
(:meth:`~repro.lockmgr.sharded.ShardedLockCore.restore_sequence`)
instead of trusting a fresh counter to draw the same numbers again.

Durability model — group commit.  ``append`` buffers; :meth:`flush`
writes the buffered lines and fsyncs according to the ``fsync`` policy
(``"batch"`` — the default — fsyncs once per flush; ``"always"``
flushes-and-fsyncs inside every append; ``"never"`` leaves syncing to
the OS).  The server calls ``flush`` once per event-loop turn, *after*
the turn's operations ran but *before* any of their replies is written,
so the hot path pays one fsync per turn, never per op or connection,
and no client ever holds a reply whose records could still be lost.  A
failed flush (ENOSPC, a failed fsync, a short write) is final — see
:meth:`SessionJournal.flush`; the server fail-stops on it.  The file is
the history: a file-backed journal keeps nothing it appends, so its
memory does not grow with the log.

Torn tails.  Every line is ``crc32(body) + " " + body``; the loader
stops at the first line that is truncated, undecodable or fails its
checksum and counts the remainder as corrupt tail.  A ``kill -9``
mid-write therefore recovers to the longest durable prefix — a state
the server actually passed through — which is the property the
crash-at-every-record suite in ``tests/properties`` pins down.

Restart epochs.  Every recovery appends a ``boot`` record; the count of
boot records is the server's *restart epoch*, stamped into every wire
response so clients can observe that they are talking to a reincarnation
(and resume by session token — the ``resume`` op).
"""

from __future__ import annotations

import errno
import os
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from .protocol import compact_encoder, json_decode

#: Accepted values for the ``fsync`` policy knob.
FSYNC_POLICIES = ("always", "batch", "never")


#: The canonical-body encoder, built once (not per record).
_encode_body = compact_encoder(sort_keys=True)


#: Fields of a ``begin``/``lock``/``finish`` record after ``sid`` — and,
#: in this order, of the same sub-op in a ``batch`` record after its kind.
BATCH_FIELDS = {
    "begin": ("tid",),
    "lock": ("tid", "rid", "mode", "seq"),
    "finish": ("tid", "ab"),
}


def encode_record(record: Dict[str, Any]) -> str:
    """One journal line: crc32 of the canonical body, space, body."""
    body = _encode_body(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return "{:08x} {}".format(crc, body)


def decode_record(line: str) -> Optional[Dict[str, Any]]:
    """Parse one journal line; None when truncated or corrupt."""
    if len(line) < 10 or line[8] != " ":
        return None
    prefix, body = line[:8], line[9:]
    try:
        crc = int(prefix, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json_decode(body)
    except ValueError:
        return None
    if not isinstance(record, dict) or "kind" not in record:
        return None
    return record


class SessionJournal:
    """Append-only session/lease/lock journal (see module docstring).

    ``path=None`` keeps the journal purely in memory — the explorer's
    restart fault and the property suites journal thousands of
    schedules without touching a filesystem.  With a path, appended
    records buffer until :meth:`flush` (group commit) and are not kept;
    opening an existing file loads its durable prefix first, so
    construction *is* crash recovery's read side.
    """

    def __init__(self, path: Optional[str] = None, fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                "fsync policy must be one of {}, got {!r}".format(
                    FSYNC_POLICIES, fsync
                )
            )
        self.path = path
        self.fsync = fsync
        self._records: List[Dict[str, Any]] = []
        self._pending: List[str] = []
        self._file = None
        #: Records loaded at open; ``boot`` records loaded or appended;
        #: file size at the last successful flush.
        self._loaded = self._boots = self._durable = 0
        #: The error that ended this journal (see :meth:`flush`).
        self.failed: Optional[OSError] = None
        #: Lines beyond the durable prefix dropped at load time.
        self.corrupt_tail = 0
        #: Lifetime counters (mirrored into ``ServiceStats``).
        self.appended = 0
        self.flushes = 0
        self.fsyncs = 0
        if path is not None:
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as handle:
                    self._load_text(handle.read())
            self._file = open(path, "a", encoding="utf-8")
            self._durable = os.path.getsize(path)

    # -- loading -----------------------------------------------------------

    def _load_text(self, text: str) -> None:
        lines = text.splitlines()
        loaded = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            record = decode_record(line)
            if record is None:
                # Torn or corrupt: everything from here on is not part
                # of the durable prefix.
                self.corrupt_tail = len(lines) - position
                break
            loaded.append(record)
        self._hold(loaded)

    def _hold(self, records: List[Dict[str, Any]]) -> None:
        self._records = records
        self._loaded = len(records)
        self._boots = sum(1 for r in records if r.get("kind") == "boot")

    @classmethod
    def from_text(cls, text: str) -> "SessionJournal":
        """An in-memory journal holding ``text``'s durable prefix."""
        journal = cls()
        journal._load_text(text)
        return journal

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "SessionJournal":
        """An in-memory journal holding copies of ``records`` (the
        property suites use this to cut at record boundaries)."""
        journal = cls()
        journal._hold([dict(record) for record in records])
        return journal

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": kind}
        record.update(fields)
        self.appended += 1
        self._boots += kind == "boot"
        if self.path is None:
            self._records.append(record)
        else:
            self._pending.append(encode_record(record))
            if self.fsync == "always":
                self.flush()
        return record

    def append_boot(self) -> None:
        """Mark a server (re)start; bumps :attr:`epoch`."""
        self.append("boot")

    def flush(self) -> int:
        """Write buffered records (one fsync per call under the default
        ``"batch"`` policy); returns the number of lines written.  An
        ``OSError`` — a short write counts as one — ends the journal:
        the file is cut back to its last durable byte and closed, and
        this and every later call raise that error."""
        if self.failed is not None:
            raise self.failed
        if not self._pending or self._file is None:
            return 0
        data = "\n".join(self._pending) + "\n"
        try:
            if self._file.write(data) != len(data):
                raise OSError(errno.EIO, "short write to the journal")
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
                self.fsyncs += 1
        except OSError as exc:
            self.failed = exc
            self.abandon()
            raise
        self._durable += len(data)  # records are ASCII: chars are bytes
        written = len(self._pending)
        self._pending = []
        self.flushes += 1
        return written

    def close(self) -> None:
        if self._file is not None:
            self.flush()  # a failing flush closes the file itself
            self._file.close()
            self._file = None

    def abandon(self) -> None:
        """Drop unflushed records and close without syncing, leaving
        the file at its last durable byte — the in-process stand-in for
        ``kill -9`` (tests use it to crash a server at an exact record
        boundary) and the end of a journal whose flush failed."""
        self._pending = []
        handle, self._file = self._file, None
        if handle is not None:
            with suppress(OSError):  # may retry its buffered write
                handle.close()
            with suppress(OSError):
                os.truncate(self.path, self._durable)

    # -- introspection -----------------------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """The records recovery replays: a file-backed journal hands
        its loaded prefix over and keeps nothing."""
        if self.path is None:
            return list(self._records)
        records, self._records = self._records, []
        return records

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def __len__(self) -> int:
        return self._loaded + self.appended

    @property
    def epoch(self) -> int:
        """Restart epoch: how many times a server booted on this
        journal (the envelope's ``epoch`` field)."""
        return self._boots

    def to_text(self) -> str:
        """The held records as line-encoded text (tests corrupt this)."""
        return "\n".join(
            encode_record(record) for record in self._records
        )


@dataclass
class RecoveryReport:
    """What one journal replay did (also folded into the ``recovery_*``
    stats)."""

    replayed: int = 0
    boots: int = 0
    sessions_restored: int = 0
    leases_honored: int = 0
    leases_reaped: int = 0
    replay_errors: int = 0
    corrupt_tail: int = 0
    seconds: float = 0.0
    #: sid -> sorted tids of every lease honored (clients resume these).
    honored: Dict[str, List[int]] = field(default_factory=dict)


def recover_into(core, journal: SessionJournal, now: Optional[float] = None):
    """Rebuild a **fresh** :class:`ServiceCore` from ``journal``.

    Replays every record through the same manager/session code the live
    server ran (telemetry muted — replay is not traffic), re-asserting
    journaled first-lock sequence numbers so the rebuilt RST/TST is
    byte-identical to the pre-crash table at the last durable record.
    Then stamps a ``boot`` record, honors every still-live lease
    (sessions stay registered, detached, awaiting ``resume``) and reaps
    the expired ones — each reap appending its own ``close`` record so
    a second restart does not resurrect it.

    ``now`` is the wall-clock instant leases are judged against
    (defaults to ``core.wall()``).  Attaches ``journal`` to ``core``
    and returns a :class:`RecoveryReport`.
    """
    from ..core.errors import ReproError
    from ..core.modes import parse_mode
    from .core import Session

    started = perf_counter()
    report = RecoveryReport(corrupt_tail=journal.corrupt_tail)

    def replay(record) -> None:
        try:
            apply(record)
        except (ReproError, KeyError, ValueError, TypeError):
            report.replay_errors += 1

    def apply(record) -> None:
        kind = record.get("kind")
        if kind == "batch":
            # One frame's sub-ops, each through its single-op arm below.
            for op in record["ops"]:
                fields = zip(BATCH_FIELDS[op[0]], op[1:])
                replay(dict(fields, kind=op[0], sid=record["sid"]))
        elif kind == "boot":
            report.boots += 1
        elif kind == "open":
            sid = str(record["sid"])
            session = Session(sid, float(record["lease"]), core.clock())
            session.token = record.get("token")
            session.wall_deadline = float(record["expires"])
            session.journaled_expiry = session.wall_deadline
            core.sessions[sid] = session
            report.sessions_restored += 1
            if sid.startswith("S"):
                try:
                    core._next_sid = max(core._next_sid, int(sid[1:]) + 1)
                except ValueError:
                    pass
        elif kind == "renew":
            session = core.sessions.get(str(record["sid"]))
            if session is not None:
                session.wall_deadline = float(record["expires"])
                session.journaled_expiry = session.wall_deadline
        elif kind == "close":
            session = core.sessions.get(str(record["sid"]))
            if session is not None:
                core.close_session(session)
        elif kind == "begin":
            session = core.sessions[str(record["sid"])]
            tid = int(record["tid"])
            core.claim(tid, session)
            core._next_tid = max(core._next_tid, tid + 1)
        elif kind == "lock":
            tid, rid = int(record["tid"]), str(record["rid"])
            # A frame may lock without a begin: the lock claimed then.
            session = core.sessions.get(str(record.get("sid")))
            if session is not None:
                core.claim(tid, session)
            core.manager.lock(tid, rid, parse_mode(record["mode"]))
            core.manager.restore_sequence(rid, record.get("seq"))
        elif kind == "finish":
            core.manager.finish(int(record["tid"]))
            core.release_claim(int(record["tid"]))
        elif kind == "detect":
            core.manager.detect()
        # Unknown kinds are skipped: a newer server's records
        # must not wedge an older reader mid-recovery.

    core.journal = None  # replay must never re-journal itself
    was_enabled = core.telemetry.enabled
    core.telemetry.enabled = False
    try:
        for record in journal.drain():
            replay(record)
            report.replayed += 1
        core.pump()
    finally:
        core.telemetry.enabled = was_enabled

    # The journal is live again: the boot marker and the reap closes
    # below are this incarnation's first durable records.
    core.journal = journal
    journal.append_boot()
    now = core.wall() if now is None else now
    for session in sorted(core.sessions.values(), key=lambda s: s.sid):
        if now > session.wall_deadline:
            core.stats.lease_expiries += 1
            core.close_session(session)  # appends the close record
            report.leases_reaped += 1
        else:
            # Honor the lease: re-anchor the (monotonic) deadline to
            # the wall-clock remainder and wait for a resume.
            remaining = session.wall_deadline - now
            session.deadline = core.clock() + remaining
            session.detached = True
            session.transport = None
            report.leases_honored += 1
            report.honored[session.sid] = sorted(session.tids)
    journal.flush()
    report.seconds = perf_counter() - started

    stats = core.stats
    stats.recovery_records_replayed += report.replayed
    stats.recovery_leases_honored += report.leases_honored
    stats.recovery_leases_reaped += report.leases_reaped
    stats.recovery_replay_errors += report.replay_errors
    core.telemetry.registry.gauge(
        "repro_recovery_seconds",
        help="wall-clock seconds the last journal replay took",
    ).set(report.seconds)
    return report
