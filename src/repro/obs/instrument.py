"""The telemetry hub: one object wiring the lock stack's seams into a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.spans.TraceLog`.

The lock manager already reports every observable mutation as an event
(:mod:`repro.lockmgr.events`); :meth:`Telemetry.on_event` is the
listener a :class:`~repro.lockmgr.sharded.ShardedLockCore` calls for each
one, feeding the per-mode/per-resource wait-time histograms and the
block/grant counters and the spans.  The service layer adds the pieces
only it knows — frame arrival (:meth:`request`), resumed waits
(:meth:`resume`), client timeouts (:meth:`wait_timeout`), transaction
end (:meth:`finish`) — and the detector reports each pass's shape
through :meth:`detection`.  What the service counts flat (passes,
cycles, victims, repositionings, timeouts) is counted once, in its
:class:`~repro.service.admin.ServiceStats`, not here.

``enabled=False`` turns every hook into an early return while keeping
the registry alive (the ``ServiceStats`` counters, which never turn
off, still work), which is how the ``<=5%`` instrumentation-overhead
budget is enforced: the disabled path costs one attribute load and a
branch.

Every series a hook feeds is a :class:`~repro.obs.metrics.bound`
declaration on :class:`Telemetry` — created when first fed, then held —
so the request path never looks an instrument up by name; the two label
sets that depend on the traffic (a wait's ``mode``/``kind``, a block's
``rid``) keep their children in a dict, ``rid`` capped at
:data:`TRACKED_RIDS`.

The metric catalog lives in ``docs/OBSERVABILITY.md``.
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
from .spans import TraceLog

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


class Telemetry:
    """Registry + trace log + the instrumentation hooks (see module
    docstring).  ``clock`` is the owning service's (possibly virtual)
    clock; wall time is always stamped alongside it."""

    _requests = _counter(
        "repro_lock_requests_total", "lock frames issued to the manager"
    )
    _batch_size = _histogram(
        "repro_batch_size", "sub-operations per batch frame", COUNT_BUCKETS
    )
    _fsync_seconds = _histogram(
        "repro_journal_fsync_seconds",
        "write+fsync latency of one journal group commit",
        DURATION_BUCKETS,
    )
    _grants_immediate = _counter(*_GRANTS, path="immediate")
    _grants_waited = _counter(*_GRANTS, path="waited")
    _blocks_conversion = _counter(*_BLOCKS, kind="conversion")
    _blocks_queue = _counter(*_BLOCKS, kind="queue")
    _other_rid_blocks = _counter(*_RID_BLOCKS, rid="other")
    _edges = _counter(
        "repro_detector_edges_examined_total",
        "edges examined by Step-2 walks",
    )
    _tdr1 = _counter("repro_detector_tdr1_total", "cycles resolved by abort")
    _tdr2 = _counter(
        "repro_detector_tdr2_total", "cycles resolved by queue repositioning"
    )
    _deadlock_passes = _counter(
        "repro_detector_deadlock_passes_total",
        "passes that found at least one cycle",
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
        self._clock = clock if clock is not None else time.monotonic
        self.trace = TraceLog(clock=self._clock)
        #: tid -> (virtual time of first block, mode name, wait kind).
        #: Survives client timeouts (the request stays queued), so the
        #: wait histogram measures time from first block to grant.
        self._blocked_since: Dict[int, Tuple[float, str, str]] = {}
        #: Held children of the traffic-dependent label sets: (mode,
        #: kind) -> wait histogram, rid -> block counter (bounded).
        self._wait_seconds: Dict[Tuple[str, str], object] = {}
        self._rid_blocks: Dict[str, object] = {}
        #: ``(tid, rid)`` of the announced lock frame.
        self._frame: Optional[tuple] = None
        self._on = {
            Granted: self._on_granted,
            Blocked: self._on_blocked,
            Aborted: self._on_aborted,
        }

    # -- service-layer hooks ----------------------------------------------

    def request(self, tid: int, rid: str, mode) -> None:
        """A lock frame is about to hit the manager.  Its span opens on
        the manager's answer, the frame's own event."""
        if self.enabled:
            self._requests.inc()
            self._frame = (tid, rid)

    def resume(self, tid: int, rid: str, mode) -> None:
        """The manager refused the announced frame: its transaction is
        already blocked (the request-stays-queued resume path after a
        client timeout)."""
        if self.enabled:
            self._frame = None
            self.trace.resumed(tid, rid, MODE_NAMES[mode])

    def wait_timeout(self, tid: int) -> None:
        """The client gave up waiting; the request stays queued."""
        if self.enabled:
            self.trace.timed_out(tid)

    def batch(self, size: int) -> None:
        """One ``batch`` frame carrying ``size`` pipelined sub-ops."""
        if self.enabled:
            self._batch_size.observe(size)

    def journal_flush(self, seconds: float) -> None:
        """One journal group commit took ``seconds`` to write+fsync."""
        if self.enabled:
            self._fsync_seconds.observe(seconds)

    def finish(self, tid: int, aborted: bool = False) -> None:
        """Transaction end: close its spans, forget its pending wait."""
        if not self.enabled:
            return
        self._blocked_since.pop(tid, None)
        self.trace.finished(tid, aborted=aborted)

    def pass_span(self, status: str):
        """Record a detector-pass span and return its ref, the span id
        (None with telemetry disabled)."""
        if not self.enabled:
            return None
        return str(self.trace.record(0, "", "", "pass", status).span_id)

    def pending_waits(self) -> List[int]:
        """Transactions blocked without a terminal outcome yet (the
        span-completeness oracle checks this drains to empty)."""
        return sorted(self._blocked_since)

    # -- lock-manager event stream ----------------------------------------

    def on_event(self, event) -> None:
        """Listener for :class:`~repro.lockmgr.sharded.ShardedLockCore`."""
        if self.enabled:
            handler = self._on.get(type(event))
            if handler is not None:
                handler(event)

    def _framed(self, event) -> bool:
        """Whether ``event`` answers the pending frame (taking it)."""
        if self._frame != (event.tid, event.rid):
            return False
        self._frame = None
        return True

    def _on_granted(self, event: Granted) -> None:
        mode = MODE_NAMES[event.mode]
        if event.immediate:
            self._grants_immediate.inc()
            if self._framed(event):
                self.trace.begin(
                    event.tid, event.rid, mode, "granted-immediate"
                )
                return
        else:
            self._grants_waited.inc()
            since = self._blocked_since.pop(event.tid, None)
            if since is not None:
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
                histogram.observe(max(self._clock() - started, 0.0))
        self.trace.granted(event.tid, event.rid, mode, event.immediate)

    def _on_blocked(self, event: Blocked) -> None:
        mode = MODE_NAMES[event.mode]
        if event.conversion:
            kind = "conversion"
            self._blocks_conversion.inc()
        else:
            kind = "queue"
            self._blocks_queue.inc()
        counter = self._rid_blocks.get(event.rid)
        if counter is None:
            if len(self._rid_blocks) < TRACKED_RIDS:
                counter = self._rid_blocks[event.rid] = self.registry.counter(
                    _RID_BLOCKS[0],
                    labels={"rid": event.rid},
                    help=_RID_BLOCKS[1],
                )
            else:
                counter = self._other_rid_blocks
        counter.inc()
        self._blocked_since.setdefault(event.tid, (self._clock(), mode, kind))
        if self._framed(event):
            self.trace.begin(
                event.tid, event.rid, mode, "blocked", event.conversion
            )
        else:
            self.trace.blocked(event.tid, event.rid, mode, event.conversion)

    def _on_aborted(self, event: Aborted) -> None:
        self._blocked_since.pop(event.tid, None)
        self.trace.aborted(event.tid)

    # -- detector ----------------------------------------------------------

    def detection(self, result, duration: float) -> None:
        """One detection pass: ``result`` is a
        :class:`~repro.core.detection.DetectionResult`, ``duration`` its
        wall-clock cost in seconds."""
        if not self.enabled:
            return
        stats = result.stats
        self._edges.inc(stats.edges_examined)
        self._tdr1.inc(stats.tdr1_applied)
        self._tdr2.inc(stats.tdr2_applied)
        if result.deadlock_found:
            self._deadlock_passes.inc()
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
        self._last_run.set(self._clock())
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
