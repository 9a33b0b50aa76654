"""Acceptance: the ``metrics``/``spans`` wire commands over a loopback
server driving the paper's Example 4.1.

The workload blocks nine requests across R1/R2, a detector pass
resolves the deadlock abort-free via TDR-2 queue repositioning, and the
telemetry surface must agree with itself: non-zero wait histograms and
pass durations, the Prometheus text exposition round-tripping to the
exact ``stats`` counters, repositioning counters visible, and every
span reaching a terminal state once the transactions finish.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.modes import LockMode
from repro.obs import parse_exposition
from repro.service import LoopbackServer
from repro.service.admin import ServiceStats, stat_metric_name
from repro.service.client import AsyncLockClient

GRANTED = ((7, "R2", LockMode.IS), (1, "R1", LockMode.IX),
           (2, "R1", LockMode.IS), (3, "R1", LockMode.IX),
           (4, "R1", LockMode.IS))
BLOCKED = ((1, "R1", LockMode.S), (2, "R1", LockMode.S),
           (5, "R1", LockMode.IX), (6, "R1", LockMode.S),
           (7, "R1", LockMode.IX), (8, "R2", LockMode.X),
           (9, "R2", LockMode.IX), (3, "R2", LockMode.S),
           (4, "R2", LockMode.X))


@pytest.fixture
def server():
    # No detector clock: the test triggers passes explicitly (a clocked
    # server would run one itself the moment Example 4.1 saturates).
    with LoopbackServer(period=None) as loopback:
        yield loopback


async def drive_example_41(client: AsyncLockClient) -> None:
    for tid, rid, mode in GRANTED:
        assert await client.acquire(tid, rid, mode)
    for tid, rid, mode in BLOCKED:
        assert not await client.acquire(tid, rid, mode, wait=False)


def test_example_41_loopback_round_trip(server):
    async def scenario():
        client = await AsyncLockClient.connect(
            server.host, server.port, heartbeat=False
        )
        try:
            await drive_example_41(client)
            result = await client.detect()
            metrics = await client.metrics()
            stats = await client.stats()
            for tid in range(1, 10):
                await client.commit(tid)
            spans = await client.spans()
            return result, metrics, stats, spans
        finally:
            await client.close()

    result, metrics, stats, spans = asyncio.run(scenario())

    # The pass resolved the deadlock abort-free via TDR-2.
    assert result.deadlock_found and result.abort_free

    # Non-zero wait histograms: TDR-2 granted blocked requests, each
    # grant observed as a first-block-to-grant interval.
    assert metrics["enabled"]
    waits = [
        entry for entry in metrics["metrics"]["histograms"]
        if entry["name"] == "repro_lock_wait_seconds"
    ]
    assert sum(entry["count"] for entry in waits) > 0
    passes = [
        entry for entry in metrics["metrics"]["histograms"]
        if entry["name"] == "repro_detector_pass_seconds"
    ]
    assert passes and passes[0]["count"] >= 1
    assert passes[0]["sum"] > 0.0

    # The Prometheus text exposition round-trips to the stats payload,
    # counter for counter.
    samples = parse_exposition(metrics["text"])
    for field in ServiceStats.FIELDS:
        exposed = samples.get((stat_metric_name(field), ()), 0.0)
        if field == "requests":
            # Every wire frame counts as a request, including the
            # ``stats`` call issued after the ``metrics`` snapshot.
            assert stats[field] - exposed == 1
        else:
            assert exposed == stats[field], field

    # Satellite: TDR-2 queue repositioning surfaces in stats.
    assert stats["queue_repositionings"] >= 1
    assert stats["requests_repositioned"] >= 1
    assert stats["abort_free_resolutions"] == 1
    assert stats["victims_aborted"] == 0
    assert stats["detector_passes"] >= 1

    # Span lifecycles are complete: everything terminal after commit.
    assert spans["open"] == 0
    # Spans key on (tid, rid): T1/T2's conversion requests continue the
    # span their IX/IS grants opened, so 12 distinct pairs, not 14.
    distinct = {(tid, rid) for tid, rid, _ in GRANTED + BLOCKED}
    assert spans["total"] == len(distinct) == 12
    statuses = {span["status"] for span in spans["spans"]}
    assert statuses <= {"released", "aborted", "timed-out"}
    assert "released" in statuses


def test_metrics_endpoint_reports_disabled_telemetry():
    from repro.obs import Telemetry

    with LoopbackServer(period=60.0, telemetry=Telemetry(enabled=False)) \
            as loopback:
        async def scenario():
            client = await AsyncLockClient.connect(
                loopback.host, loopback.port, heartbeat=False
            )
            try:
                assert await client.acquire(1, "R", LockMode.X)
                metrics = await client.metrics()
                spans = await client.spans()
                stats = await client.stats()
                return metrics, spans, stats
            finally:
                await client.close()

        metrics, spans, stats = asyncio.run(scenario())

    # The event-stream hooks are off: no lock counters, no spans...
    names = {entry["name"] for entry in metrics["metrics"]["counters"]}
    assert not metrics["enabled"]
    assert "repro_lock_requests_total" not in names
    assert spans["total"] == 0
    # ...but ServiceStats still counts through the shared registry.
    assert stats["grants"] == 1
    assert stat_metric_name("grants").format() in {
        entry["name"] for entry in metrics["metrics"]["counters"]
    }
