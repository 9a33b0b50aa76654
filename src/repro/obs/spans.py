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
moves finished ones into a bounded ring, and exports everything as
JSON-lines.  A span is born with its first phases — ``request``, plus
the outcome the manager gave at once — stamped from **one** clock pair
kept on the span itself; later stamps are ``(phase, wall, virtual)``
tuples, and the ``events`` dicts are rendered when somebody reads them.
The span-completeness oracle in
:mod:`repro.check.oracles` asserts that a drained schedule leaves no
span open in a non-``granted`` state and no span unreleased.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["Span", "TraceLog", "TERMINAL_STATES", "LIFECYCLE_KINDS"]

#: States a span can end in.  ``granted`` is live (lock held), not terminal.
TERMINAL_STATES = frozenset({"released", "aborted", "timed-out"})

#: Span kinds that follow the request lifecycle above.  The other kind,
#: ``pass``, is a point-in-time annotation recorded by the detector and
#: is exempt from the completeness oracle.
LIFECYCLE_KINDS = frozenset({"request", "conversion", "queue", "resume"})

#: The phases a span is born with, by the outcome known at birth (shared
#: tuples), and the status the last one leaves it in where that differs.
BORN = {None: ("request",)}
for _outcome in ("granted-immediate", "granted", "blocked"):
    BORN[_outcome] = ("request", _outcome)
BORN_STATUS = {"request": "requested", "granted-immediate": "granted"}


class Span:
    """One lock request's lifecycle (see module docstring)."""

    __slots__ = (
        "span_id", "tid", "rid", "mode", "kind", "status", "born", "wall",
        "virtual", "later", "trace", "parent", "unfinished",
    )

    def __init__(
        self,
        span_id: int,
        tid: int,
        rid: str,
        mode: str,
        kind: str,
        born: Tuple[str, ...],
        wall: float,
        virtual: float,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
    ) -> None:
        self.span_id = span_id
        self.tid = tid
        self.rid = rid
        self.mode = mode
        #: ``request`` for a first attempt, ``conversion`` once blocked
        #: inside the holder list, ``queue`` once blocked in the FIFO
        #: queue, ``resume`` for a re-sent lock after a client timeout,
        #: ``pass`` for a whole detector pass.
        self.kind = kind
        self.status = BORN_STATUS.get(born[-1], born[-1])
        #: The phases stamped at birth, all at ``(wall, virtual)``.
        self.born = born
        self.wall = wall
        self.virtual = virtual
        #: Every later state change: ``(phase, wall, virtual)`` tuples.
        self.later: Optional[List[Tuple[str, float, float]]] = None
        #: Propagated trace context: the client-minted trace id this
        #: span belongs to, and the span ref of its causal parent
        #: (``origin:span_id`` — cross-process-unique).
        self.trace = trace
        self.parent = parent
        #: True when the span was still in flight at eviction time and
        #: was flushed to the ring instead of silently dropped.
        self.unfinished = False

    def stamp(self, phase: str, wall: float, virtual: float) -> None:
        if self.later is None:
            self.later = [(phase, wall, virtual)]
        else:
            self.later.append((phase, wall, virtual))

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def events(self) -> List[Dict[str, float]]:
        """One ``{"phase", "wall", "virtual"}`` dict per state change."""
        stamps = [(phase, self.wall, self.virtual) for phase in self.born]
        return [
            {"phase": phase, "wall": wall, "virtual": virtual}
            for phase, wall, virtual in stamps + (self.later or [])
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
        if self.trace is not None:
            record["trace"] = self.trace
        if self.parent is not None:
            record["parent"] = self.parent
        if self.unfinished:
            record["unfinished"] = True
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(#{} T{} {} {} {})".format(
            self.span_id, self.tid, self.rid, self.mode, self.status
        )


class TraceLog:
    """Span book-keeping over the lock manager's event stream.

    ``clock`` is the owning service's virtual clock (defaults to
    ``time.monotonic``); wall-clock stamps always come from
    ``time.time``.  ``capacity`` bounds both the completed-span ring and
    the open-span table so a long-lived server cannot grow without
    bound: when a new span would push the open table past capacity, the
    oldest in-flight span is *flushed* into the ring with an ``unfinished: true`` marker (never silently
    dropped).  ``origin`` names this process in exported span refs
    (``origin:span_id``) so parent links stay unambiguous across hops.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 4096,
        origin: Optional[str] = None,
    ) -> None:
        self.clock = clock if clock is not None else time.monotonic
        self.capacity = capacity
        self.origin = origin
        self._next_id = 1
        #: tid -> rid -> open span: the one index.
        self._open: Dict[int, Dict[str, Span]] = {}
        self._open_count = 0
        #: The eviction order: rebuilt from the open spans' ids when an
        #: eviction finds it used up, not maintained.
        self._order: Deque[Span] = deque()
        self._completed: Deque[Span] = deque(maxlen=capacity)
        self.total_started = 0
        #: Born-finished annotation spans (``record()``) — counted apart
        #: from the request lifecycle so ``total_started`` stays the
        #: number of lock-request spans.
        self.total_recorded = 0
        #: In-flight spans evicted (flushed unfinished) at capacity.
        self.evicted_unfinished = 0

    def span_ref(self, span: Span) -> str:
        """The cross-process-unique ref of ``span``
        (``origin:span_id``, or the bare id with no origin set)."""
        if self.origin:
            return "{}:{}".format(self.origin, span.span_id)
        return str(span.span_id)

    # -- span surface ------------------------------------------------------

    def _find(self, tid: int, rid: str) -> Optional[Span]:
        spans = self._open.get(tid)
        return spans.get(rid) if spans is not None else None

    def begin(
        self,
        tid: int,
        rid: str,
        mode: str,
        trace: Optional[str] = None,
        parent: Optional[str] = None,
        outcome: Optional[str] = None,
        conversion: bool = False,
    ) -> Span:
        """A lock frame for ``(tid, rid)`` reached the service.
        ``outcome`` (``granted-immediate``, or ``blocked`` and where) is
        the manager's answer when already known: its stamp and the
        ``request`` stamp then share one clock pair."""
        span = self._find(tid, rid)
        if span is None:
            span = self._start(
                tid, rid, mode, "request", BORN[outcome], trace, parent
            )
        else:
            if trace is not None and span.trace is None:
                span.trace = trace
            if parent is not None and span.parent is None:
                span.parent = parent
            wall, virtual = time.time(), self.clock()
            for phase in BORN[outcome]:
                span.stamp(phase, wall, virtual)
            if outcome is not None:
                span.status = BORN_STATUS.get(outcome, outcome)
        if outcome == "blocked":
            span.kind = "conversion" if conversion else "queue"
        return span

    def blocked(self, tid: int, rid: str, mode: str, conversion: bool) -> Span:
        span = self._find(tid, rid)
        if span is None:
            span = self._start(tid, rid, mode, "request", BORN["blocked"])
        else:
            span.status = "blocked"
            self._stamp(span, "blocked")
        span.kind = "conversion" if conversion else "queue"
        return span

    def granted(self, tid: int, rid: str, mode: str, immediate: bool) -> Span:
        phase = "granted-immediate" if immediate else "granted"
        span = self._find(tid, rid)
        if span is None:
            # A grant with no open span: the sweep granted a request
            # whose span was closed by a client timeout.
            return self._start(tid, rid, mode, "resume", BORN[phase])
        span.status = "granted"
        self._stamp(span, phase)
        return span

    def _waiting(self, tid: int) -> Optional[Span]:
        """``tid``'s open span that is still waiting, if any."""
        for span in self._open.get(tid, {}).values():
            if span.status in ("requested", "blocked"):
                return span
        return None

    def resumed(self, tid: int, rid: str, mode: str) -> Optional[Span]:
        """The client re-sent a lock while its request is still queued.

        If the original span is still open (a plain duplicate) this just
        stamps it; after a timeout closed it, a fresh ``resume`` span is
        opened in the blocked state."""
        span = self._waiting(tid)
        if span is not None:
            self._stamp(span, "resume")
            return span
        return self._start(tid, rid, mode, "resume", BORN["blocked"])

    def timed_out(self, tid: int) -> Optional[Span]:
        """Close ``tid``'s waiting span as timed-out (client gave up;
        the request itself stays queued server-side)."""
        span = self._waiting(tid)
        if span is not None:
            span.status = "timed-out"
            self._stamp(span, "timed-out")
            self._retire(span)
        return span

    def aborted(self, tid: int) -> List[Span]:
        """``tid`` was aborted (deadlock victim / lease sweep): every
        open span of the transaction ends as ``aborted``."""
        return self.finished(tid, aborted=True)

    def finished(self, tid: int, aborted: bool = False) -> List[Span]:
        """Transaction end (strict 2PL releases everything): granted
        spans close as ``released``; anything still waiting closes as
        ``aborted`` (the queue entry is discarded with the txn).  One
        instant, so one clock pair stamps them all."""
        spans = self._open.pop(tid, None)
        if not spans:
            return []
        closed = list(spans.values())
        self._open_count -= len(closed)
        wall, virtual = time.time(), self.clock()
        for span in closed:
            if aborted or span.status != "granted":
                span.status = "aborted"
            else:
                span.status = "released"
            span.stamp(span.status, wall, virtual)
        self._completed.extend(closed)
        return closed

    # -- reads -------------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """The open spans, oldest first."""
        return sorted(
            (span for spans in self._open.values() for span in spans.values()),
            key=lambda span: span.span_id,
        )

    def completed_spans(self) -> List[Span]:
        return list(self._completed)

    def all_spans(self) -> List[Span]:
        spans = list(self._completed) + self.open_spans()
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

    def record(
        self,
        tid: int,
        rid: str,
        mode: str,
        kind: str,
        status: str,
    ) -> Span:
        """Record a complete point-in-time span straight into the ring
        (detector pass spans — anything that is born finished)."""
        born = ("request", status)
        span = self._new(tid, rid, mode, kind, born, None, None)
        self.total_recorded += 1
        self._completed.append(span)
        return span

    # -- internals ---------------------------------------------------------

    def _new(self, tid, rid, mode, kind, born, trace, parent) -> Span:
        self._next_id += 1
        return Span(
            self._next_id - 1, tid, rid, mode, kind, born,
            time.time(), self.clock(), trace, parent,
        )

    def _start(
        self, tid, rid, mode, kind, born, trace=None, parent=None
    ) -> Span:
        if self.capacity and self._open_count >= self.capacity:
            self._evict_oldest_open()
        span = self._new(tid, rid, mode, kind, born, trace, parent)
        self.total_started += 1
        spans = self._open.get(tid)
        if spans is None:
            self._open[tid] = {rid: span}
        else:
            spans[rid] = span
        self._open_count += 1
        return span

    def _evict_oldest_open(self) -> Span:
        """Flush the oldest in-flight span into the completed ring with
        an ``unfinished`` marker (exported, never dropped).  One sort of
        the open spans serves ``capacity`` evictions (whatever started
        since is younger): nothing is scanned per eviction."""
        while True:
            if not self._order:
                self._order = deque(self.open_spans())
            span = self._order.popleft()
            if not (span.terminal or span.unfinished):
                break
        span.unfinished = True
        self._stamp(span, "evicted")
        self._retire(span)
        self.evicted_unfinished += 1
        return span

    def _stamp(self, span: Span, phase: str) -> None:
        span.stamp(phase, time.time(), self.clock())

    def _retire(self, span: Span) -> None:
        """Move one span from the open index to the completed ring."""
        spans = self._open[span.tid]
        del spans[span.rid]
        if not spans:
            del self._open[span.tid]
        self._open_count -= 1
        self._completed.append(span)
