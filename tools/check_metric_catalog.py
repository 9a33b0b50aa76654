#!/usr/bin/env python
"""Catalog drift check: ``docs/OBSERVABILITY.md`` against the registry.

Runs the scripted scenario of ``tests/obs/scenario.py`` (one shard and
four), plus the few series only a live, journaled server feeds (wire
telemetry, group-commit latency, the recovery gauges), and compares the metric families the
registries then hold with the ``repro_*`` names in the catalog's
tables:

* a family the registry holds that no table row names  -> undocumented;
* a table row naming a family nothing produced         -> stale.

``repro_service_<field>_total`` in a table stands for one family per
``ServiceStats.FIELDS`` entry.  The ``repro_client_*`` rows are outside
the check: the workload clients keep registries of their own.

Exits 0 when the catalog and the code agree.

Usage::

    python tools/check_metric_catalog.py
"""

from __future__ import annotations

import asyncio
import os
import re
import sys
import tempfile
from typing import List, Set

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, REPO_ROOT)

from repro.service import LoopbackServer  # noqa: E402
from repro.service.admin import ServiceStats, stat_metric_name  # noqa: E402
from repro.service.client import AsyncLockClient  # noqa: E402
from tests.obs import scenario  # noqa: E402

CATALOG = os.path.join(REPO_ROOT, "docs", "OBSERVABILITY.md")
_ROW = re.compile(r"^\|\s*`(repro_[A-Za-z0-9_<>]+)`")
#: Families kept by registries other than a lock server's.
ELSEWHERE = ("repro_client_",)


def documented(path: str = CATALOG) -> Set[str]:
    """Every family the catalog's tables name."""
    names: Set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            match = _ROW.match(line)
            if match is None or match.group(1).startswith(ELSEWHERE):
                continue
            name = match.group(1)
            if "<field>" in name:
                names.update(
                    stat_metric_name(field) for field in ServiceStats.FIELDS
                )
            else:
                names.add(name)
    return names


def _families(registry) -> Set[str]:
    return {family.name for family in registry.families()}


def _live_server_families() -> Set[str]:
    """What only a journaled, clocked server with connections feeds: a
    restart on a non-empty journal, 64+ frames per codec, one cycle
    that saturates the table (a certain pass)."""

    async def chat(server, wire):
        client = await AsyncLockClient.connect(
            server.host, server.port, heartbeat=False, wire=wire
        )
        try:
            for _ in range(130):
                await client.heartbeat()
            for tid, rid in ((1, "A"), (2, "B"), (1, "B"), (2, "A")):
                await client.acquire(tid, rid, "X", wait=False)
            for tid in (1, 2):
                await client.abort(tid)
        finally:
            await client.close()

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "journal.jsonl")
        for _ in range(2):  # the second boot replays the first's records
            with LoopbackServer(
                period=60.0, policy="periodic", journal_path=path
            ) as server:
                for wire in ("json", "binary"):
                    asyncio.run(chat(server, wire))
                names = _families(server.server.core.telemetry.registry)
    return names


def produced() -> Set[str]:
    names = _live_server_families()
    for shards in (1, 4):
        for core in scenario.run(shards).values():
            names |= _families(core.telemetry.registry)
    return names


def compare(in_docs: Set[str], in_code: Set[str]) -> List[str]:
    """One line per family on one side only."""
    return [
        "undocumented: {} is in the registry but in no table of "
        "docs/OBSERVABILITY.md".format(name)
        for name in sorted(in_code - in_docs)
    ] + [
        "stale: docs/OBSERVABILITY.md lists {} but nothing produced "
        "it".format(name)
        for name in sorted(in_docs - in_code)
    ]


def main() -> int:
    in_docs = documented()
    problems = compare(in_docs, produced())
    for line in problems:
        print(line)
    if problems:
        return 1
    print("metric catalog OK: {} families documented and produced".format(
        len(in_docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
