#!/usr/bin/env python
"""Deadlock a two-shard server and prove the forensics surface works.

The CI incident smoke: starts one ``python -m repro serve --shards 2``
process with an on-disk incident log and the ``--metrics-port``
exporter, drives a deadlock-heavy micro-workload (every transaction
holds on one shard and waits on the other), runs detector passes, and
asserts

* at least one ``repro.incident/1`` record lands in the incident log
  and validates against the schema;
* the record names the service as its source and carries the pass
  span ref;
* one HTTP scrape of the ``--metrics-port`` endpoint parses as
  Prometheus 0.0.4 text and its lock and detector counters equal what
  the ``metrics`` op answers;
* ``repro incidents list``/``graph`` render the log.

Exits 0 on success.  On failure it prints a diagnosis and (with
``--artifact-dir``) saves the incident log for upload.

Usage::

    python tools/incident_smoke.py [--artifact-dir DIR] [--rounds N]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.errors import TransactionAborted  # noqa: E402
from repro.core.modes import LockMode  # noqa: E402
from repro.lockmgr.partition import partition_of  # noqa: E402
from repro.obs import parse_exposition  # noqa: E402
from repro.obs.incidents import (  # noqa: E402
    load_incidents,
    validate_incident_file,
)
from repro.service import RemoteLockManager  # noqa: E402
from repro.service.protocol import ServiceError  # noqa: E402

SHARDS = 2
#: Counter families the scrape and the ``metrics`` op must agree on.
COMPARED = (
    "repro_lock_requests_total",
    "repro_lock_grants_total",
    "repro_lock_blocks_total",
    "repro_service_detector_passes_total",
    "repro_detector_cross_shard_cycles_total",
)


def wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def rids_on_distinct_shards(shards: int):
    found = {}
    i = 0
    while len(found) < shards:
        i += 1
        rid = "R{}".format(i)
        index = partition_of(rid, shards)
        if index not in found:
            found[index] = rid
    return [found[index] for index in sorted(found)]


def drive_deadlock_round(manager, base_tid: int, a: str, b: str):
    """Two transactions, each holding on one shard and waiting on the
    other — the canonical cross-shard cycle."""
    t1, t2 = base_tid, base_tid + 1
    manager.begin(t1)
    manager.begin(t2)
    assert manager.acquire(t1, a, LockMode.X, timeout=10.0)
    assert manager.acquire(t2, b, LockMode.X, timeout=10.0)
    outcomes = {}

    def wait_for(tid, rid):
        try:
            outcomes[tid] = manager.acquire(
                tid, rid, LockMode.X, timeout=30.0
            )
        except (TransactionAborted, ServiceError):
            outcomes[tid] = "aborted"

    threads = [
        threading.Thread(target=wait_for, args=(t1, b)),
        threading.Thread(target=wait_for, args=(t2, a)),
    ]
    for thread in threads:
        thread.start()
    if not wait_until(manager.deadlocked):
        raise RuntimeError("cross-shard deadlock never formed")
    return threads, outcomes, (t1, t2)


def drain_round(manager, threads, outcomes, tids):
    for thread in threads:
        thread.join(timeout=30.0)
        if thread.is_alive():
            raise RuntimeError("waiter thread stuck after resolution")
    for tid in tids:
        try:
            if outcomes.get(tid) is True or manager.holding(tid):
                manager.commit(tid)
        except (ServiceError, TransactionAborted):
            pass


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.status == 200
        return response.read().decode("utf-8")


def counter_total(samples, name: str) -> float:
    """Sum of a counter family over all label children."""
    return sum(
        value
        for (sample_name, _labels), value in samples.items()
        if sample_name == name
    )


def check_scrape(manager, metrics_url: str, problems):
    """One scrape equals the ``metrics`` op on a quiet server."""
    op_counters = manager.metrics()["metrics"].get("counters", [])
    samples = parse_exposition(scrape(metrics_url))
    for name in COMPARED:
        expected = sum(
            entry["value"] for entry in op_counters if entry["name"] == name
        )
        exposed = counter_total(samples, name)
        if exposed != expected:
            problems.append(
                "scraped {} is {} but the metrics op says {}".format(
                    name, exposed, expected
                )
            )
    if counter_total(samples, "repro_service_detector_passes_total") < 1:
        problems.append("no detector pass in the scraped exposition")


def check_incident_log(path: str, problems):
    count, errors = validate_incident_file(path)
    if errors:
        problems.append(
            "incident log invalid ({} record(s)): {}".format(
                count, "; ".join(errors[:5])
            )
        )
        return
    if count < 1:
        problems.append("no incident record after a resolved deadlock")
        return
    records = load_incidents(path)
    newest = records[-1]
    if newest.get("source") != "service":
        problems.append(
            "incident source is {!r}, not 'service'".format(
                newest.get("source")
            )
        )
    if not newest.get("span"):
        problems.append(
            "incident lacks the pass span ref (got {!r})".format(
                newest.get("span")
            )
        )
    print(
        "incident log OK: {} record(s), newest {} ({} cycle(s), "
        "span {})".format(
            count,
            newest.get("id"),
            len(newest.get("cycles") or ()),
            newest.get("span"),
        )
    )


def check_cli(path: str, problems):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    for action in ("list", "graph"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "incidents", action, path],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=60,
        )
        if proc.returncode != 0:
            problems.append(
                "repro incidents {} failed: {}".format(
                    action, proc.stderr.strip()
                )
            )
        elif action == "graph" and "digraph incident" not in proc.stdout:
            problems.append("incidents graph did not emit Graphviz DOT")


def start_server(incident_log: str):
    """``(process, (host, port), metrics_url)`` of a fresh server with
    no detector clock: the smoke runs every pass itself."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--shards", str(SHARDS), "--period", "0",
            "--incident-log", incident_log, "--metrics-port", "0",
        ],
        stdout=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT,
    )
    metrics_url = endpoint = None
    while endpoint is None:
        line = server.stdout.readline()
        if not line:
            server.wait(timeout=10)
            raise RuntimeError("serve exited with {}".format(server.returncode))
        found = re.search(r"metrics exposition on (http://\S+)", line)
        if found:
            metrics_url = found.group(1)
        found = re.search(r"listening on ([0-9.]+):(\d+)", line)
        if found:
            endpoint = (found.group(1), int(found.group(2)))
    if metrics_url is None:
        raise RuntimeError("serve printed no metrics endpoint")
    return server, endpoint, metrics_url


def stop_server(server) -> None:
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact-dir", default=None)
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="deadlock rounds to drive (each ends in one detector pass)",
    )
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="incident-smoke-")
    incident_log = os.path.join(workdir, "incidents.jsonl")
    problems = []
    try:
        server, (host, port), metrics_url = start_server(incident_log)
        try:
            with RemoteLockManager(host, port) as manager:
                a, b = rids_on_distinct_shards(SHARDS)
                resolved = 0
                for round_index in range(args.rounds):
                    threads, outcomes, tids = drive_deadlock_round(
                        manager, 1 + 2 * round_index, a, b
                    )
                    if manager.detect().deadlock_found:
                        resolved += 1
                    else:
                        problems.append(
                            "round {}: pass saw no deadlock".format(
                                round_index
                            )
                        )
                    drain_round(manager, threads, outcomes, tids)
                print(
                    "drove {} deadlock round(s), {} resolved by the "
                    "detector".format(args.rounds, resolved)
                )
                check_incident_log(incident_log, problems)
                check_scrape(manager, metrics_url, problems)
        finally:
            stop_server(server)
        check_cli(incident_log, problems)
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        problems.append("smoke harness error: {!r}".format(exc))

    if args.artifact_dir and os.path.exists(incident_log):
        os.makedirs(args.artifact_dir, exist_ok=True)
        shutil.copy(
            incident_log,
            os.path.join(args.artifact_dir, "incidents.jsonl"),
        )
    shutil.rmtree(workdir, ignore_errors=True)

    if problems:
        for problem in problems:
            print("FAIL:", problem, file=sys.stderr)
        return 1
    print(
        "incident smoke OK: validated incident log, scrape matches the "
        "metrics op"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
