"""The live operator view: ``python -m repro top`` and
``python -m repro trace-export``.

``top`` polls a running lock server's ``metrics``/``stats``/``inspect``
commands and renders a refreshing terminal dashboard: request and grant
rates (derived from successive counter samples), blocked transactions
and parked waiters, wait-time percentiles, the hottest resources by
block count, and the last detector pass.  Rendering is a pure function
of two samples (:func:`render_dashboard`), so tests drive it with
canned payloads and the polling loop stays a thin shell.

``trace-export`` dumps the server's span log (the request lifecycles of
:mod:`repro.obs.spans`) as JSON-lines to stdout or a file.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Sample",
    "take_sample",
    "render_dashboard",
    "render_incident_pane",
    "run_top",
    "run_trace_export",
]


class Sample:
    """One poll of a server: time plus the three payloads."""

    __slots__ = ("time", "metrics", "stats", "inspect")

    def __init__(
        self,
        when: float,
        metrics: Dict[str, Any],
        stats: Dict[str, Any],
        inspect: Dict[str, Any],
    ) -> None:
        self.time = when
        self.metrics = metrics
        self.stats = stats
        self.inspect = inspect

    # -- snapshot readers ---------------------------------------------------

    def counter_total(self, name: str) -> float:
        """Sum of a counter family over all label children."""
        return sum(
            entry["value"]
            for entry in self.metrics.get("counters", [])
            if entry["name"] == name
        )

    def gauge(self, name: str) -> Optional[float]:
        for entry in self.metrics.get("gauges", []):
            if entry["name"] == name:
                return entry["value"]
        return None

    def histogram_summary(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Dict[str, float]]:
        """Merge a histogram family's children into one summary (counts
        added bucket-wise, percentiles recomputed from the merge).
        ``labels`` restricts the merge to children carrying those
        label values (e.g. one shard's series)."""
        from .metrics import bucket_quantile

        children = [
            entry
            for entry in self.metrics.get("histograms", [])
            if entry["name"] == name
            and (
                labels is None
                or all(
                    entry.get("labels", {}).get(key) == value
                    for key, value in labels.items()
                )
            )
        ]
        if not children:
            return None
        buckets = children[0]["buckets"]
        counts = [0.0] * len(children[0]["counts"])
        total, acc, max_observed = 0, 0.0, None
        for child in children:
            for index, count in enumerate(child["counts"]):
                counts[index] += count
            total += child["count"]
            acc += child["sum"]
            if child.get("max") is not None:
                max_observed = (
                    child["max"]
                    if max_observed is None
                    else max(max_observed, child["max"])
                )
        return {
            "count": total,
            "sum": acc,
            "max": max_observed,
            "p50": bucket_quantile(buckets, counts, 0.50, max_observed),
            "p95": bucket_quantile(buckets, counts, 0.95, max_observed),
            "p99": bucket_quantile(buckets, counts, 0.99, max_observed),
        }

    def hottest_resources(self, limit: int = 5) -> List[Tuple[str, float]]:
        """Resources by cumulative block count, hottest first."""
        heat = [
            (entry["labels"].get("rid", "?"), entry["value"])
            for entry in self.metrics.get("counters", [])
            if entry["name"] == "repro_resource_blocks_total"
        ]
        heat.sort(key=lambda pair: (-pair[1], pair[0]))
        return heat[:limit]


def _rate(current: Sample, previous: Optional[Sample], name: str) -> float:
    if previous is None:
        return 0.0
    dt = current.time - previous.time
    if dt <= 0:
        return 0.0
    return (current.counter_total(name) - previous.counter_total(name)) / dt


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 0.001:
        return "{:.0f}us".format(value * 1e6)
    if value < 1.0:
        return "{:.1f}ms".format(value * 1e3)
    return "{:.2f}s".format(value)


def render_dashboard(
    sample: Sample, previous: Optional[Sample] = None, width: int = 72
) -> str:
    """The dashboard text for one poll (pure; no I/O)."""
    stats = sample.stats
    lines: List[str] = []
    title = " repro lock service — top "
    lines.append(title.center(width, "="))
    lines.append(
        "sessions {:<5} transactions {:<5} resources {:<5} "
        "parked {:<5}".format(
            stats.get("sessions", 0),
            stats.get("transactions", 0),
            stats.get("resources", 0),
            stats.get("parked_waiters", 0),
        )
    )
    lines.append(
        "requests/s {:>8.1f}   grants/s {:>8.1f}   blocks/s {:>8.1f}".format(
            _rate(sample, previous, "repro_lock_requests_total"),
            _rate(sample, previous, "repro_lock_grants_total"),
            _rate(sample, previous, "repro_lock_blocks_total"),
        )
    )
    lines.append(
        "totals: grants {}  blocks {}  timeouts {}  commits {}  "
        "aborts {}".format(
            stats.get("grants", 0),
            stats.get("blocks", 0),
            stats.get("wait_timeouts", 0),
            stats.get("commits", 0),
            stats.get("aborts", 0),
        )
    )
    blocked = sample.inspect.get("blocked", [])
    lines.append(
        "blocked txns: {}".format(
            " ".join("T{}".format(tid) for tid in blocked) or "none"
        )
    )

    waits = sample.histogram_summary("repro_lock_wait_seconds")
    lines.append("-" * width)
    if waits and waits["count"]:
        lines.append(
            "lock waits: {} observed   p50 {}   p95 {}   p99 {}   "
            "max {}".format(
                int(waits["count"]),
                _fmt_seconds(waits["p50"]),
                _fmt_seconds(waits["p95"]),
                _fmt_seconds(waits["p99"]),
                _fmt_seconds(waits["max"]),
            )
        )
    else:
        lines.append("lock waits: none observed yet")

    hottest = sample.hottest_resources()
    if hottest:
        lines.append(
            "hottest resources: "
            + "  ".join(
                "{} ({})".format(rid, int(count)) for rid, count in hottest
            )
        )

    shard_rows = sample.inspect.get("shards") or []
    if len(shard_rows) > 1:
        lines.append("-" * width)
        lines.append(
            "shards: {}   cross-shard cycles {}   stale resolutions "
            "{}".format(
                len(shard_rows),
                int(
                    sample.counter_total(
                        "repro_detector_cross_shard_cycles_total"
                    )
                ),
                int(
                    sample.counter_total(
                        "repro_detector_stale_resolutions_total"
                    )
                ),
            )
        )
        for row in shard_rows:
            snapshot = sample.histogram_summary(
                "repro_shard_snapshot_seconds",
                labels={"shard": str(row.get("shard"))},
            )
            lines.append(
                "  shard {:<3} resources {:<5} blocked {:<4} queued "
                "{:<4} snapshot p95 {}".format(
                    row.get("shard"),
                    row.get("resources", 0),
                    row.get("blocked", 0),
                    row.get("queued", 0),
                    _fmt_seconds(
                        snapshot["p95"]
                        if snapshot and snapshot["count"]
                        else None
                    ),
                )
            )

    lines.append("-" * width)
    passes = sample.counter_total("repro_service_detector_passes_total")
    deadlock_passes = sample.counter_total(
        "repro_service_deadlock_passes_total"
    )
    abort_free = sample.counter_total(
        "repro_service_abort_free_resolutions_total"
    )
    ratio = (
        "{:.0%}".format(abort_free / deadlock_passes)
        if deadlock_passes
        else "-"
    )
    lines.append(
        "detector: {} passes  {} with deadlock  abort-free ratio {}  "
        "TDR-1 {}  TDR-2 {}  certain {}".format(
            int(passes),
            int(deadlock_passes),
            ratio,
            int(sample.counter_total("repro_detector_tdr1_total")),
            int(sample.counter_total("repro_detector_tdr2_total")),
            int(sample.counter_total("repro_service_certain_passes_total")),
        )
    )
    policy_name = stats.get("policy")
    if policy_name:
        lines.append(
            "policy: {}   policy aborts {}".format(
                policy_name,
                int(sample.counter_total("repro_policy_aborts_total")),
            )
        )
    last_run = sample.gauge("repro_detector_last_run")
    if passes:
        lines.append(
            "last pass: {}  over {} txns  {} cycle(s)".format(
                _fmt_seconds(sample.gauge("repro_detector_last_pass_seconds")),
                int(sample.gauge("repro_detector_last_graph_transactions") or 0),
                int(sample.gauge("repro_detector_last_cycles") or 0),
            )
        )
    else:
        lines.append("last pass: never" if last_run is None else "last pass: -")
    lines.append("=" * width)
    return "\n".join(lines)


def render_incident_pane(
    records: List[Dict[str, Any]], width: int = 72, limit: int = 3
) -> str:
    """The newest deadlock incidents as a dashboard pane (pure; no
    I/O).  ``records`` is an incident-log record list, oldest first —
    the pane shows the newest ``limit`` of them, newest on top."""
    lines = [" deadlock incidents ".center(width, "-")]
    if not records:
        lines.append("  none recorded")
        return "\n".join(lines)
    for record in reversed(records[-limit:]):
        cycles = record.get("cycles") or []
        decisions = ",".join(
            entry.get("decision", "?") for entry in cycles
        ) or "-"
        lines.append(
            "  {}  {}  {} cycle(s) [{}]  aborted {}  "
            "repositioned {}".format(
                record.get("id", "?"),
                record.get("source", "?"),
                len(cycles),
                decisions,
                record.get("aborted") or "-",
                ",".join(
                    entry.get("rid", "?")
                    for entry in record.get("repositions") or ()
                )
                or "-",
            )
        )
        for entry in cycles:
            lines.append(
                "    cycle {}".format(
                    " -> ".join(
                        "T{}".format(tid) for tid in entry.get("cycle", ())
                    )
                )
            )
    if len(records) > limit:
        lines.append(
            "  ({} older incident(s) in the log)".format(
                len(records) - limit
            )
        )
    return "\n".join(lines)


def _incident_pane_for(path: Optional[str], width: int = 72) -> str:
    if not path:
        return ""
    from .incidents import load_incidents

    return render_incident_pane(load_incidents(path), width=width) + "\n"


async def _sample_client(client) -> Sample:
    metrics = await client.metrics()
    stats = await client.stats()
    inspect = await client.inspect()
    return Sample(time.monotonic(), metrics["metrics"], stats, inspect)


def take_sample(host: str, port: int) -> Sample:
    """One-shot poll of a server (blocking convenience for tools)."""
    from ..service.client import AsyncLockClient

    async def poll() -> Sample:
        client = await AsyncLockClient.connect(host, port, heartbeat=False)
        try:
            return await _sample_client(client)
        finally:
            await client.close()

    return asyncio.run(poll())


def run_top(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    out=None,
    incidents_path: Optional[str] = None,
) -> int:
    """The polling loop behind ``python -m repro top``.

    ``iterations=1`` (the ``--once`` flag) prints a single dashboard and
    exits; otherwise the loop refreshes every ``interval`` seconds until
    interrupted."""
    from ..service.client import AsyncLockClient

    write = out if out is not None else sys.stdout.write

    async def loop() -> int:
        client = await AsyncLockClient.connect(host, port)
        previous: Optional[Sample] = None
        count = 0
        try:
            while True:
                sample = await _sample_client(client)
                text = render_dashboard(sample, previous)
                if clear and iterations != 1:
                    write("\x1b[2J\x1b[H")
                write(text + "\n")
                write(_incident_pane_for(incidents_path))
                previous = sample
                count += 1
                if iterations is not None and count >= iterations:
                    return 0
                await asyncio.sleep(interval)
        finally:
            await client.close()

    try:
        return asyncio.run(loop())
    except KeyboardInterrupt:
        return 0


def run_trace_export(
    host: str,
    port: int,
    out_path: Optional[str] = None,
    limit: int = 0,
) -> int:
    """Dump the server's span log as JSON-lines (``trace-export``).
    Returns the number of spans written."""
    from ..service.client import AsyncLockClient

    async def fetch() -> Dict[str, Any]:
        client = await AsyncLockClient.connect(host, port, heartbeat=False)
        try:
            # Annotation spans included: the export is the causal trace
            # tree, so detector-pass and resolution spans ride along
            # with the request lifecycles they explain.
            return await client.spans(limit=limit, annotations=True)
        finally:
            await client.close()

    payload = asyncio.run(fetch())
    lines = [
        json.dumps(span, sort_keys=True) for span in payload["spans"]
    ]
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return len(lines)
