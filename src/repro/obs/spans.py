"""Request-lifecycle spans: one record per lock request, from frame
arrival to its terminal event.

A :class:`Span` follows one ``(tid, rid)`` request through the states

    requested -> blocked -> granted -> released
                        \\-> aborted | timed-out

Every state change stamps a phase event carrying *both* clocks: wall
time (``time.time``, for humans correlating with logs) and the virtual
clock the owning service runs on (the asyncio loop clock on a live
server, the schedule explorer's :class:`~repro.check.schedule.VirtualClock`
under ``repro.check``).  ``granted`` is not terminal — a granted lock is
still held; strict 2PL releases it at transaction end, which closes the
span as ``released``.

A client-side timeout closes the span as ``timed-out`` even though the
underlying request stays queued (the service contract); when the client
re-sends the lock and resumes the same queue position, a new span of
kind ``resume`` tracks the second attempt.

:class:`TraceLog` owns the spans: it indexes the open ones once per
transaction (``tid`` -> ``rid`` -> span), evicts them oldest-first,
keeps finished ones in a bounded ring, and exports everything as
JSON-lines.  :meth:`~repro.obs.instrument.Telemetry.fold` writes it,
stamping all one fold handles from **one** clock pair.  A span is born
with its first phases (``request``, plus the outcome the manager gave
at once) at the pair kept on the span; later stamps are ``(phase,
wall, virtual)`` tuples.  An open span is a list of its :data:`FIELDS`;
its transaction's end files it in the ring as it is, beside the one
closing stamp all its spans share, and a span that ends alone as a
flat tuple.  Either becomes a :class:`Span`, ``events`` dicts and all,
only when somebody reads it.
The span-completeness oracle in
:mod:`repro.check.oracles` asserts that a drained schedule leaves no
span open in a non-``granted`` state and no span unreleased.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Deque, Dict, Iterator, List, Optional

__all__ = ["Span", "TraceLog", "TERMINAL_STATES", "LIFECYCLE_KINDS"]

#: States a span can end in.  ``granted`` is live (lock held), not terminal.
TERMINAL_STATES = frozenset({"released", "aborted", "timed-out"})

#: Span kinds that follow the request lifecycle above.  The other kind,
#: ``pass``, is a point-in-time annotation recorded by the detector and
#: is exempt from the completeness oracle.
LIFECYCLE_KINDS = frozenset({"request", "conversion", "queue", "resume"})

#: The phases a span is born with, by the outcome known at birth (shared
#: tuples), and the status that outcome leaves it in.
BORN = {
    outcome: ("request", outcome)
    for outcome in ("granted-immediate", "granted", "blocked")
}
STATUS_AFTER = {
    "granted-immediate": "granted", "granted": "granted", "blocked": "blocked"
}

#: A span's fields, in the order its list (open) or tuple (finished)
#: keeps them, and the positions the fold writes.
FIELDS = (
    "span_id", "tid", "rid", "mode", "kind", "status", "born", "wall",
    "virtual", "later", "unfinished",
)
SPAN_ID, TID, RID, KIND, STATUS, LATER, UNFINISHED = 0, 1, 2, 4, 5, 9, 10


def stamp(span: list, *stamps) -> None:
    """Add ``(phase, wall, virtual)`` stamps to an open span."""
    later = span[LATER]
    span[LATER] = stamps if later is None else later + stamps


class Span:
    """One lock request's lifecycle as read back (see module docstring):
    the :data:`FIELDS` of an open or a finished span."""

    __slots__ = FIELDS

    def __init__(self, fields) -> None:
        for name, value in zip(FIELDS, fields):
            setattr(self, name, value)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def events(self) -> List[Dict[str, float]]:
        """One ``{"phase", "wall", "virtual"}`` dict per state change:
        the phases ``born`` at ``(wall, virtual)``, then ``later``."""
        stamps = [(phase, self.wall, self.virtual) for phase in self.born]
        return [
            {"phase": phase, "wall": wall, "virtual": virtual}
            for phase, wall, virtual in stamps + list(self.later or ())
        ]

    def to_dict(self) -> dict:
        record = {
            "span": self.span_id,
            "tid": self.tid,
            "rid": self.rid,
            "mode": self.mode,
            "kind": self.kind,
            "status": self.status,
            "events": self.events,
        }
        if self.unfinished:
            record["unfinished"] = True
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(#{} T{} {} {} {})".format(
            self.span_id, self.tid, self.rid, self.mode, self.status
        )


class TraceLog:
    """The open-span index and the completed-span ring (see module
    docstring).

    ``capacity`` bounds both so a long-lived server cannot grow without
    bound: when a new span would push the open table past capacity, the
    oldest in-flight span is *flushed* into the ring with an
    ``unfinished: true`` marker (never silently dropped).  Every stamp
    is handed in by the caller: the log reads no clock.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        #: The id the next span gets: request spans and annotations
        #: share one sequence.
        self.next_id = 1
        #: tid -> rid -> open span: the one index, and its size.
        self.index: Dict[int, Dict[str, list]] = {}
        self.open_count = 0
        #: The eviction order: rebuilt from the open spans' ids when an
        #: eviction finds it used up, not maintained.
        self._order: Deque[list] = deque()
        #: The finished spans: one closed by its transaction's end as
        #: ``(span, (aborted, wall, virtual))``, stamped when read; any
        #: other as its fields' tuple.
        self._completed: Deque[tuple] = deque(maxlen=capacity)
        #: Born-finished annotation spans (``record()``) — counted apart
        #: from the request lifecycle so ``total_started`` stays the
        #: number of lock-request spans.
        self.total_recorded = 0
        #: In-flight spans evicted (flushed unfinished) at capacity.
        self.evicted_unfinished = 0

    # -- writes (by the telemetry fold) ------------------------------------

    def waiting(self, tid: int) -> Optional[list]:
        """``tid``'s open span that is still waiting, if any."""
        for span in self.index.get(tid, {}).values():
            if span[STATUS] == "blocked":
                return span
        return None

    def finish(self, tid: int, aborted: bool, wall, virtual) -> None:
        """Transaction end (strict 2PL releases everything): every open
        span of ``tid`` closes at ``(wall, virtual)``."""
        spans = self.index.pop(tid, None)
        if spans:
            self.open_count -= len(spans)
            self._completed.extend(
                zip(spans.values(), repeat((aborted, wall, virtual)))
            )

    def retire(self, span: list, end) -> None:
        """Move one span, stamped ``end``, from the open index to the
        completed ring."""
        stamp(span, end)
        spans = self.index[span[TID]]
        del spans[span[RID]]
        if not spans:
            del self.index[span[TID]]
        self.open_count -= 1
        self._completed.append(tuple(span))

    def record(self, tid, rid, mode, kind, status, wall, virtual) -> int:
        """Record a complete point-in-time span straight into the ring
        (detector pass spans — anything that is born finished); returns
        its span id."""
        span_id, self.next_id = self.next_id, self.next_id + 1
        self.total_recorded += 1
        self._completed.append((
            span_id, tid, rid, mode, kind, status, ("request", status),
            wall, virtual, None, False,
        ))
        return span_id

    def evict_oldest_open(self, end) -> None:
        """Flush the oldest in-flight span into the completed ring with
        an ``unfinished`` marker (exported, never dropped).  One sort of
        the open spans serves ``capacity`` evictions (whatever started
        since is younger): nothing is scanned per eviction."""
        while True:
            if not self._order:
                self._order = deque(self._open())
            span = self._order.popleft()
            if self.index.get(span[TID], {}).get(span[RID]) is span:
                break  # still open
        span[UNFINISHED] = True
        self.retire(span, end)
        self.evicted_unfinished += 1

    # -- reads -------------------------------------------------------------

    @property
    def total_started(self) -> int:
        """Lock-request spans ever opened."""
        return self.next_id - 1 - self.total_recorded

    def _open(self) -> List[list]:
        return sorted(
            (span for spans in self.index.values() for span in spans.values()),
            key=itemgetter(SPAN_ID),
        )

    def open_spans(self) -> List[Span]:
        """The open spans, oldest first."""
        return [Span(span) for span in self._open()]

    def _finished(self) -> Iterator[list]:
        """The kept finished spans' fields, oldest first: at its
        transaction's end a granted span was released, any other
        aborted (the queue entry is discarded with the txn)."""
        for entry in self._completed:
            fields = list(entry[0] if len(entry) == 2 else entry)
            if len(entry) == 2:
                aborted, wall, virtual = entry[1]
                if aborted or fields[STATUS] != "granted":
                    fields[STATUS] = "aborted"
                else:
                    fields[STATUS] = "released"
                end = (fields[STATUS], wall, virtual)
                fields[LATER] = (fields[LATER] or ()) + (end,)
            yield fields

    def completed_spans(self) -> List[Span]:
        return [Span(fields) for fields in self._finished()]

    def all_spans(self) -> List[Span]:
        spans = self.completed_spans() + self.open_spans()
        return sorted(spans, key=lambda s: s.span_id)

    def to_dicts(self, limit: int = 0, kinds=None) -> List[dict]:
        spans = self.all_spans()
        if kinds is not None:
            spans = [span for span in spans if span.kind in kinds]
        if limit:
            spans = spans[-limit:]
        return [span.to_dict() for span in spans]

    def export_jsonl(self, limit: int = 0) -> str:
        """The span log as JSON-lines (one span per line)."""
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in self.to_dicts(limit)
        )
