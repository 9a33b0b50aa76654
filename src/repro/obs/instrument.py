"""The telemetry hub: one object wiring the lock stack's seams into a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.TraceLog`.

The lock manager reports every observable mutation as an event
(:mod:`repro.lockmgr.events`); the listener a
:class:`~repro.lockmgr.sharded.ShardedLockCore` calls for each one is
:attr:`Telemetry.record`, a bound ``list.append``: recording costs one C
call.  The service appends markers for what only it knows to the same
:attr:`~Telemetry.stream` — refused lock frames (:meth:`refused`; an
answered frame is marked by its answer), resumed waits (:meth:`resume`),
client timeouts (:meth:`wait_timeout`), transaction end
(:meth:`finish`), batch frames (:meth:`batch`).
:meth:`~Telemetry.fold` consumes the stream in order, stamped with one
clock pair, into the spans, the wait histograms and the counters.
``ServiceCore.pump``, which runs after every step, folds, and every
read folds first, so a scrape from another thread is at most one step
old.  The
detector reports each pass's shape through :meth:`detection`; the
service's flat counts live in its
:class:`~repro.service.admin.ServiceStats`, not here.

``enabled=False`` turns every hook into an early return and the fold
into dropping the stream; the registry stays alive for the
``ServiceStats`` counters, which never turn off.  The hot counters are
plain ints (:data:`HOT`), every other series a
:class:`~repro.obs.metrics.bound` declaration: each is registered when
first fed, then held, so the request path never looks an instrument up
by name; a wait's ``mode``/``kind`` and a block's ``rid`` (capped at
:data:`TRACKED_RIDS`) keep their children in a dict.  What all this
costs is ``obs.self_us_per_txn`` of ``bench/run.py --trace 1``, and the
catalog is ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core.modes import MODE_NAMES
from ..core.victim import AbortCandidate
from ..lockmgr.events import Aborted, Blocked, Granted
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    DURATION_BUCKETS,
    MetricsRegistry,
    bound,
)
from .spans import BORN, KIND, STATUS, STATUS_AFTER, TraceLog, stamp

__all__ = ["Telemetry", "TRACKED_RIDS"]

#: Distinct resources ``repro_resource_blocks_total`` names (the first
#: to block); every later one counts under ``rid="other"``, so the
#: label set — kept forever, rendered on every scrape — stays bounded.
TRACKED_RIDS = 256

_counter = partial(bound, "counter")
_histogram = partial(bound, "histogram")
_gauge = partial(bound, "gauge")
_GRANTS = ("repro_lock_grants_total", "granted lock requests by grant path")
_BLOCKS = ("repro_lock_blocks_total", "blocked lock requests by wait kind")
_RID_BLOCKS = (
    "repro_resource_blocks_total",
    "blocked lock requests per resource (contention hot spots)",
)

#: The hot counters, by slot in :attr:`Telemetry.hot`: (series, help,
#: labels).  Each is a plain ``int`` the fold adds to.  A refused lock
#: frame has no series of its own: every frame counts in
#: :meth:`Telemetry.requests`.
HOT = (
    _GRANTS + ({"path": "immediate"},),
    _GRANTS + ({"path": "waited"},),
    _BLOCKS + ({"kind": "conversion"},),
    _BLOCKS + ({"kind": "queue"},),
    None,
)
IMMEDIATE, WAITED, CONVERSION, QUEUE, REFUSED = range(len(HOT))


class Telemetry:
    """Registry + trace log + the instrumentation hooks (see module
    docstring).  ``clock`` is the owning service's (possibly virtual)
    clock; wall time is always stamped alongside it."""

    _batch_size = _histogram(
        "repro_batch_size", "sub-operations per batch frame", COUNT_BUCKETS
    )
    _fsync_seconds = _histogram(
        "repro_journal_fsync_seconds",
        "write+fsync latency of one journal group commit",
        DURATION_BUCKETS,
    )
    _edges = _counter(
        "repro_detector_edges_examined_total",
        "edges examined by Step-2 walks",
    )
    _tdr1 = _counter("repro_detector_tdr1_total", "cycles resolved by abort")
    _tdr2 = _counter(
        "repro_detector_tdr2_total", "cycles resolved by queue repositioning"
    )
    _pass_seconds = _histogram(
        "repro_detector_pass_seconds",
        "wall-clock duration of one detection pass",
        DURATION_BUCKETS,
    )
    _graph_transactions = _histogram(
        "repro_detector_graph_transactions",
        "H/W-TWBG size (transactions) per pass",
        COUNT_BUCKETS,
    )
    _cycles_per_pass = _histogram(
        "repro_detector_cycles_per_pass", "cycles found per pass",
        COUNT_BUCKETS,
    )
    _trrps = _histogram(
        "repro_detector_trrps_per_cycle",
        "TRRP junctions per resolved cycle",
        COUNT_BUCKETS,
    )
    _last_seconds = _gauge(
        "repro_detector_last_pass_seconds", "duration of the most recent pass"
    )
    _last_cycles = _gauge(
        "repro_detector_last_cycles", "cycles found by the most recent pass"
    )
    _last_transactions = _gauge(
        "repro_detector_last_graph_transactions",
        "graph size of the most recent pass",
    )
    _last_run = _gauge(
        "repro_detector_last_run",
        "virtual-clock time of the most recent pass",
    )
    _cross_shard_cycles = _counter(
        "repro_detector_cross_shard_cycles_total",
        "resolved cycles whose resources span multiple shards",
    )
    _stale_resolutions = _counter(
        "repro_detector_stale_resolutions_total",
        "staged resolutions dropped because the live shard state moved "
        "on between snapshot and resolution",
    )
    _last_epoch_drift = _gauge(
        "repro_detector_last_epoch_drift",
        "shards mutated between snapshot and resolution in the most "
        "recent pass",
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock if clock is not None else time.monotonic
        self.trace = TraceLog()
        #: Lock events and service markers not folded yet, in order;
        #: :attr:`record` appends one.
        self.stream: list = []
        self.record = self.stream.append
        self.hot = [0] * len(HOT)
        #: Blocks per rid: the first :data:`TRACKED_RIDS`, then "other".
        self.rid_blocks: Dict[str, int] = {}
        #: tid -> (virtual time of first block, mode name, wait kind).
        #: Survives client timeouts (the request stays queued), so the
        #: wait histogram measures time from first block to grant.
        self._blocked_since: Dict[int, Tuple[float, str, str]] = {}
        #: Held children of the wait histogram: (mode, kind) -> child.
        self._wait_seconds: Dict[Tuple[str, str], object] = {}

    # -- service-layer markers ---------------------------------------------

    def refused(self) -> None:
        """The manager refused a lock frame (an aborted or an already
        blocked transaction).  A frame it answers is marked by its
        answer, the one event a lock request gets at once: an immediate
        grant or a block."""
        if self.enabled:
            self.record(("refused",))

    def resume(self, tid: int, rid: str, mode) -> None:
        """The manager refused the announced frame: its transaction is
        already blocked (the request-stays-queued resume path after a
        client timeout)."""
        if self.enabled:
            self.record(("resume", tid, rid, mode))

    def wait_timeout(self, tid: int) -> None:
        """The client gave up waiting; the request stays queued."""
        if self.enabled:
            self.record(("timeout", tid))

    def batch(self, size: int) -> None:
        """One ``batch`` frame carrying ``size`` pipelined sub-ops."""
        if self.enabled:
            self.record(("batch", size))

    def finish(self, tid: int, aborted: bool = False) -> None:
        """Transaction end: close its spans, forget its pending wait."""
        if self.enabled:
            self.record(("finish", tid, aborted))

    def journal_flush(self, seconds: float) -> None:
        """One journal group commit took ``seconds`` to write+fsync."""
        if self.enabled:
            self._fsync_seconds.observe(seconds)

    def pass_span(self, status: str):
        """Record a detector-pass span and return its ref, the span id
        (None with telemetry disabled)."""
        if not self.enabled:
            return None
        self.fold()  # the spans recorded before it take their ids first
        return str(self.trace.record(
            0, "", "", "pass", status, time.time(), self.clock()
        ))

    def pending_waits(self) -> List[int]:
        """Transactions blocked without a terminal outcome yet (the
        span-completeness oracle checks this drains to empty)."""
        self.fold()
        return sorted(self._blocked_since)

    # -- the fold ------------------------------------------------------------

    def fold(self) -> None:
        """Consume :attr:`stream` in order, stamped with one clock pair,
        into the spans, wait histograms and counters (or drop it)."""
        stream = self.stream
        if not stream:
            return
        if not self.enabled:
            del stream[:]
            return
        wall, now = time.time(), self.clock()
        trace, index = self.trace, self.trace.index
        blocked_since, hot = self._blocked_since, self.hot
        next_id = trace.next_id
        for event in stream:
            kind = type(event)
            if kind is Granted:
                tid, rid, mode = event.tid, event.rid, event.mode
                slot = IMMEDIATE if event.immediate else WAITED
            elif kind is Blocked:
                tid, rid, mode = event.tid, event.rid, event.mode
                slot = CONVERSION if event.conversion else QUEUE
            elif kind is Aborted:  # every span ends, as at an aborting finish
                if event.tid in blocked_since:
                    del blocked_since[event.tid]
                trace.finish(event.tid, True, wall, now)
                continue
            elif kind is not tuple:  # TDR-2's Repositioned: no series
                continue
            else:  # a service marker
                tag = event[0]
                if tag == "refused":
                    if not hot[REFUSED]:
                        self._feed(REFUSED)
                    hot[REFUSED] += 1
                    continue
                if tag == "batch":
                    self._batch_size.observe(event[1])
                    continue
                tid = event[1]
                if tag == "finish":
                    if tid in blocked_since:
                        del blocked_since[tid]
                    trace.finish(tid, event[2], wall, now)
                    continue
                span = trace.waiting(tid)
                if tag == "timeout":  # the request itself stays queued
                    if span is not None:
                        span[STATUS] = "timed-out"
                        trace.retire(span, ("timed-out", wall, now))
                    continue
                if span is not None:  # a resume of a wait still open
                    stamp(span, ("resume", wall, now))
                    continue
                rid, mode, slot = event[2], event[3], None
            if slot is None:  # a resume after a timeout: a span of its own
                phase, fresh = "blocked", "resume"
            else:
                if not hot[slot]:
                    self._feed(slot)
                hot[slot] += 1
                if slot == WAITED:
                    phase, fresh = "granted", "resume"
                    since = blocked_since.pop(tid, None)
                    if since is not None:
                        self._observe_wait(since, now)
                elif slot == IMMEDIATE:
                    phase, fresh = "granted-immediate", "request"
                else:
                    phase, fresh = "blocked", "request"
                    wait_kind = "conversion" if slot == CONVERSION else "queue"
                    self._count_block(rid)
                    if tid not in blocked_since:
                        blocked_since[tid] = (now, MODE_NAMES[mode], wait_kind)
            # A frame's answer also stamps ``request``; a sweep's grant
            # with no open span (a timeout closed it) opens a ``resume``.
            spans = index.get(tid)
            span = None if spans is None else spans.get(rid)
            if span is None:  # the request path's one allocation
                if trace.open_count >= trace.capacity > 0:
                    # The evicted span may be this transaction's last.
                    trace.evict_oldest_open(("evicted", wall, now))
                    spans = index.get(tid)
                span = [
                    next_id, tid, rid, MODE_NAMES[mode], fresh,
                    STATUS_AFTER[phase], BORN[phase], wall, now, None, False,
                ]
                next_id += 1
                trace.open_count += 1
                if spans is None:
                    index[tid] = {rid: span}
                else:
                    spans[rid] = span
            else:
                span[STATUS] = STATUS_AFTER[phase]
                if slot == WAITED:
                    stamp(span, (phase, wall, now))
                else:
                    stamp(span, ("request", wall, now), (phase, wall, now))
            if kind is Blocked:
                span[KIND] = wait_kind
        del stream[:]
        trace.next_id = next_id

    def requests(self) -> int:
        """Lock frames issued to the manager: answered or refused."""
        hot = self.hot
        return hot[IMMEDIATE] + hot[CONVERSION] + hot[QUEUE] + hot[REFUSED]

    def _feed(self, slot: int) -> None:
        """Register the callback counter serving one :data:`HOT` int —
        after the frame count, if this is the first frame."""
        if slot != WAITED and not self.requests():
            self.registry.counter(
                "repro_lock_requests_total",
                help="lock frames issued to the manager", fn=self.requests,
            )
        if HOT[slot] is not None:
            name, help_text, labels = HOT[slot]
            self.registry.counter(
                name, labels=labels, help=help_text,
                fn=partial(self.hot.__getitem__, slot),
            )

    def _count_block(self, rid: str) -> None:
        counts = self.rid_blocks
        if rid not in counts and len(counts) >= TRACKED_RIDS:
            rid = "other"
        count = counts.get(rid)
        counts[rid] = 1 if count is None else count + 1
        if count is None:
            self.registry.counter(
                _RID_BLOCKS[0], labels={"rid": rid}, help=_RID_BLOCKS[1],
                fn=partial(counts.__getitem__, rid),
            )

    def _observe_wait(self, since, now: float) -> None:
        started, mode_name, kind = since
        histogram = self._wait_seconds.get((mode_name, kind))
        if histogram is None:
            histogram = self.registry.histogram(
                "repro_lock_wait_seconds",
                labels={"mode": mode_name, "kind": kind},
                help="time from first block to grant",
                buckets=DEFAULT_BUCKETS,
            )
            self._wait_seconds[(mode_name, kind)] = histogram
        histogram.observe(max(now - started, 0.0))

    # -- detector ----------------------------------------------------------

    def detection(self, result, duration: float) -> None:
        """One detection pass: ``result`` is a
        :class:`~repro.core.detection.DetectionResult`, ``duration`` its
        wall-clock cost in seconds."""
        if not self.enabled:
            return
        self.fold()  # the pass's own events feed their series first
        stats = result.stats
        self._edges.inc(stats.edges_examined)
        self._tdr1.inc(stats.tdr1_applied)
        self._tdr2.inc(stats.tdr2_applied)
        self._pass_seconds.observe(duration)
        self._graph_transactions.observe(stats.transactions)
        self._cycles_per_pass.observe(stats.cycles_found)
        trrps = self._trrps
        for resolution in result.resolutions:
            trrps.observe(
                sum(
                    1
                    for candidate in resolution.candidates
                    if isinstance(candidate, AbortCandidate)
                )
            )
        self._last_seconds.set(duration)
        self._last_cycles.set(stats.cycles_found)
        self._last_transactions.set(stats.transactions)
        self._last_run.set(self.clock())
        if result.routing is not None:
            self._detection_routing(result.routing)

    def _detection_routing(self, info) -> None:
        """Shard-level figures of one cross-shard pass (a
        :class:`~repro.lockmgr.detection_pass.PassInfo`)."""
        for index, seconds in enumerate(info.snapshot_seconds):
            self.registry.histogram(
                "repro_shard_snapshot_seconds",
                labels={"shard": str(index)},
                help="time one shard's mutex was held for its snapshot",
                buckets=DURATION_BUCKETS,
            ).observe(seconds)
        self._cross_shard_cycles.inc(info.cross_part_cycles)
        self._stale_resolutions.inc(
            info.stale_victims + info.stale_repositions
        )
        self._last_epoch_drift.set(info.epoch_drift)
