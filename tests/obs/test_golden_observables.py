"""Nothing observable moved: the scripted scenario's read-back equals
the golden file its parent commit produced, and a scrape taken from
another thread agrees with the ``metrics`` op.

The golden file was written by ``tests/obs/scenario.py`` running on the
commit *before* the request path stopped looking instruments up by name
(bound instruments, read-at-scrape ``ServiceStats``, flat spans, the
bounded event ring); whatever a later change does to how things are
counted, what an operator reads back must stay byte-identical.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request
from pathlib import Path

import pytest

from repro.core.modes import LockMode
from repro.obs import parse_exposition
from repro.obs.cluster import MetricsExporter
from repro.service import LoopbackServer
from repro.service.client import AsyncLockClient

from . import scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_observables.json").read_text()
)
SECTIONS = ("snapshot", "render", "stats", "spans", "log")


@pytest.mark.parametrize("shards", [1, 4])
def test_scripted_scenario_reads_back_as_at_the_parent(shards):
    cores = scenario.run(shards)
    golden = GOLDEN["shards{}".format(shards)]
    assert set(golden) == set(cores)
    for name, core in cores.items():
        observed = scenario.observe(core)
        for section in SECTIONS:
            assert observed[section] == golden[name][section], (
                "{} differs on the {} core (shards={})".format(
                    section, name, shards
                )
            )


def test_scenario_covers_what_it_claims():
    main = GOLDEN["shards1"]["main"]
    stats = main["stats"]
    assert stats["abort_free_resolutions"] == 1  # Example 4.1 by TDR-2
    assert stats["victims_aborted"] == 1  # the TDR-1 embrace
    assert stats["batches"] == 1 and stats["blocks"] >= 13
    assert stats["wait_timeouts"] == 1 and stats["lease_expiries"] == 1
    statuses = {span["status"] for span in main["spans"]["spans"]}
    assert {"released", "aborted", "timed-out", "deadlock"} <= statuses
    assert {span["kind"] for span in main["spans"]["spans"]} >= {
        "request", "queue", "conversion", "resume", "pass"
    }
    assert main["log"]["total"] == len(main["log"]["events"]) == 40
    nowait = GOLDEN["shards1"]["nowait"]
    assert nowait["stats"]["victims_aborted"] == 1
    assert nowait["stats"]["detector_passes"] == 0


@pytest.mark.parametrize("wire", ["json", "binary"])
@pytest.mark.parametrize("shards", [1, 4])
def test_exporter_scrape_matches_the_metrics_op(shards, wire):
    """A ``MetricsExporter`` renders the live registry on its own
    thread (read-at-scrape counters included); with the server idle it
    must say exactly what the ``metrics`` op just said."""

    def scrape(port):
        url = "http://127.0.0.1:{}/metrics".format(port)
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.read().decode("utf-8")

    async def drive(server, port):
        client = await AsyncLockClient.connect(
            server.host, server.port, heartbeat=False, wire=wire
        )
        try:
            assert await client.acquire(1, "R1", LockMode.X)
            assert await client.acquire(2, "R2", LockMode.X)
            assert not await client.acquire(1, "R2", LockMode.S, wait=False)
            assert not await client.acquire(2, "R1", LockMode.S, wait=False)
            result = await client.detect()
            assert result.aborted
            for tid in (1, 2):
                if tid in result.aborted:
                    await client.abort(tid)
                else:
                    await client.commit(tid)
            payload = await client.metrics()
            # Still connected and idle: nothing moves until the scrape.
            loop = asyncio.get_running_loop()
            return payload, await loop.run_in_executor(None, scrape, port)
        finally:
            await client.close()

    # period=None: the ``detect`` below is the test's own pass.
    with LoopbackServer(
        period=None, policy="periodic", shards=shards
    ) as server:
        registry = server.server.core.telemetry.registry
        with MetricsExporter(registry.render) as exporter:
            payload, scraped = asyncio.run(drive(server, exporter.port))
    samples = parse_exposition(scraped)
    assert samples == parse_exposition(payload["text"])
    assert samples[("repro_service_commits_total", ())] == 1
    assert samples[("repro_service_aborts_total", ())] == 1
    assert samples[("repro_service_grants_total", ())] == 2
    for entry in payload["metrics"]["counters"]:
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        assert samples[key] == entry["value"]
