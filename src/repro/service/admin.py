"""Remote introspection payloads and the service's counter block.

The lock server answers ``inspect``/``graph``/``stats``/``dump`` by
serializing what the in-process introspection tools already compute:
:func:`repro.lockmgr.introspect.render_report` for the operator report,
the H/W-TWBG edge list for graph dumps, and
:mod:`repro.core.serialize` for full lock-table snapshots.  The
:class:`ServiceStats` block counts everything the service does, so a
remote operator can watch grants, blocks, detector passes, abort-free
resolutions and lease expiries without stopping the server.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from ..core.serialize import table_to_dict
from ..lockmgr.introspect import render_report
from ..lockmgr.sharded import ShardedLockCore
from ..obs.metrics import MetricsRegistry
from .protocol import event_to_dict


def stat_metric_name(field: str) -> str:
    """The registry counter backing one ``ServiceStats`` field."""
    return "repro_service_{}_total".format(field)


class ServiceStats:
    """Cumulative counters of one lock server's lifetime — its only
    flat counter block: passes, cycles, victims, repositionings and
    timeouts are counted here once, never also in the telemetry.

    Plain ``int`` attributes (mutated on the core's thread only, and
    never disabled), each registered with the
    :class:`~repro.obs.metrics.MetricsRegistry` as a counter read at
    scrape time: the same numbers answer the ``stats``
    command (this class's dict surface) and the ``metrics`` command
    (``repro_service_<field>_total``), and counting costs an ``int``
    add.  ``stats.grants += 1`` works, ``ServiceStats(grants=3)``
    constructs a pre-loaded block (tests rely on both).
    """

    FIELDS = (
        "requests",
        "grants",
        "blocks",
        "wait_timeouts",
        "commits",
        "aborts",
        "batches",
        "batched_ops",
        "detector_passes",
        # Passes run because the table was saturated, not on the clock.
        "certain_passes",
        "deadlock_passes",  # passes that found at least one cycle
        "deadlocks_resolved",
        "abort_free_resolutions",
        "queue_repositionings",
        "requests_repositioned",
        "victims_aborted",
        "sessions_opened",
        "sessions_closed",
        "lease_expiries",
        "rude_disconnects",
        "protocol_errors",
        # Durability counters: journal traffic, resumed sessions and
        # what the last restart's journal replay did.
        "sessions_resumed",
        "journal_records",
        "journal_flushes",
        "recovery_records_replayed",
        "recovery_leases_honored",
        "recovery_leases_reaped",
        "recovery_replay_errors",
        # Connections that negotiated the v2 binary framing.
        "binary_connections",
        # Detector/reaper ticks whose step raised (the tick survives).
        "tick_failures",
    )

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, **initial: int
    ) -> None:
        unknown = set(initial) - set(self.FIELDS)
        if unknown:
            raise TypeError(
                "unknown ServiceStats field(s): {}".format(sorted(unknown))
            )
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        for field in self.FIELDS:
            setattr(self, field, int(initial.get(field, 0)))
            registry.counter(
                stat_metric_name(field),
                help="service counter: " + field.replace("_", " "),
                fn=partial(getattr, self, field),
            )

    def __repr__(self) -> str:
        return "ServiceStats({})".format(
            ", ".join(
                "{}={}".format(field, getattr(self, field))
                for field in self.FIELDS
            )
        )

    def as_dict(self) -> Dict[str, int]:
        """All counters as a plain dict (the ``stats`` wire payload)."""
        return {field: getattr(self, field) for field in self.FIELDS}

    def absorb_detection(self, result) -> None:
        """Fold one detection pass's outcome into the counters."""
        self.detector_passes += 1
        if result.deadlock_found:
            self.deadlock_passes += 1
        self.deadlocks_resolved += len(result.resolutions)
        if result.abort_free:
            self.abort_free_resolutions += 1
        self.victims_aborted += len(result.aborted)
        self.queue_repositionings += len(result.repositions)
        self.requests_repositioned += sum(
            len(event.delayed) for event in result.repositions
        )


def render_stats(stats: Dict[str, Any]) -> str:
    """One aligned text block of a ``stats`` payload (CLI output)."""
    width = max(len(name) for name in stats)
    return "\n".join(
        "{:<{width}} : {}".format(name, value, width=width)
        for name, value in stats.items()
    )


def inspect_payload(manager: ShardedLockCore) -> Dict[str, Any]:
    """The ``inspect`` response: the operator report plus raw facts.

    A sharded manager additionally reports one row per shard (index,
    resources, blocked transactions, queue depth, mutation epoch)."""
    table = manager.table
    payload: Dict[str, Any] = {
        "report": render_report(table),
        "resources": len(table),
        "blocked": sorted(table.blocked_tids()),
    }
    summaries = getattr(manager, "shard_summaries", None)
    if summaries is not None:
        payload["shards"] = summaries()
    return payload


def graph_payload(
    manager: ShardedLockCore, dot: bool = False
) -> Dict[str, Any]:
    """The ``graph`` response: H/W-TWBG edges, cycles, optional dot."""
    graph = manager.graph()
    payload: Dict[str, Any] = {
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "label": edge.label,
                "rid": edge.rid,
                "lock": edge.lock.name,
            }
            for edge in graph.edges
        ],
        "cycles": graph.elementary_cycles(),
        "text": str(graph),
    }
    if dot:
        payload["dot"] = graph.to_dot()
    return payload


def dump_payload(manager: ShardedLockCore) -> Dict[str, Any]:
    """The ``dump`` response: the versioned lock-table snapshot plus the
    paper-notation rendering."""
    return {
        "table": table_to_dict(manager.table),
        "text": str(manager.table),
    }


def metrics_payload(core) -> Dict[str, Any]:
    """The ``metrics`` response: the registry snapshot plus its
    Prometheus text exposition."""
    core.telemetry.fold()
    registry = core.telemetry.registry
    return {
        "metrics": registry.snapshot(),
        "text": registry.render(),
        "enabled": core.telemetry.enabled,
    }


def spans_payload(
    core, limit: int = 0, annotations: bool = False
) -> Dict[str, Any]:
    """The ``spans`` response: the request-lifecycle span log.

    Annotation spans (detector passes) are
    counted separately and only listed with ``annotations=True`` — the
    default answers for lock-request lifecycles, while the trace export
    asks for everything so the causal tree is complete.
    """
    from ..obs.spans import LIFECYCLE_KINDS

    core.telemetry.fold()
    trace = core.telemetry.trace
    return {
        "total": trace.total_started,
        "annotations": trace.total_recorded,
        "open": len(trace.open_spans()),
        "spans": trace.to_dicts(
            limit=limit, kinds=None if annotations else LIFECYCLE_KINDS
        ),
    }


def log_payload(manager: ShardedLockCore, limit: int = 100) -> Dict[str, Any]:
    """The tail of the manager's event log as wire events: ``total``
    counts every event ever published, ``events`` come from the ring of
    recent ones (see :class:`~repro.lockmgr.events.EventLog`)."""
    events = list(manager.log)
    return {
        "total": manager.log.total,
        "events": [event_to_dict(event) for event in events[-limit:]],
    }
