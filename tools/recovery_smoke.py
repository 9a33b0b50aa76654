#!/usr/bin/env python
"""Kill -9 a journaled lock service and prove the restart is exact.

The CI recovery smoke: boots ``python -m repro serve --journal`` as a
real subprocess, drives it over the wire (``batch`` frames and their
commits, grants, a blocked queue position, a batched transaction left
open, two live sessions), SIGKILLs it while the clients are still
connected, restarts it over the same journal file, and asserts

* a batched transaction cost exactly two journal records (its frame,
  its commit);
* the rebuilt table dump is byte-identical to the pre-kill one
  (resources in first-lock order, holders, queue order, modes);
* both sessions resume by token with exactly their transactions;
* the restart epoch visibly increments on the wire;
* a commit issued after the restart releases a lock granted before it,
  unblocking the other session's queued wait.

Exits 0 on success.  On failure it prints a diagnosis and (with
``--artifact-dir``) saves the journal plus both table dumps for upload.

Usage::

    python tools/recovery_smoke.py [--artifact-dir DIR] [--lease SECONDS]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.service.client import AsyncLockClient  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn_server(port: int, journal: str, lease: float) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--period", "0", "--lease", str(lease),
            "--journal", journal,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 30.0
    banner = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                "server exited before listening:\n" + "".join(banner)
            )
        banner.append(line)
        if "listening" in line:
            return process
    raise RuntimeError("server never reported listening")


def canonical_dump(payload: dict) -> str:
    return json.dumps(payload["table"], sort_keys=True)


BATCHED = 5


async def drive_before(port: int):
    a = await AsyncLockClient.connect("127.0.0.1", port)
    b = await AsyncLockClient.connect("127.0.0.1", port)
    records = (await a.stats())["journal_records"]
    for n in range(BATCHED):  # two frames and two records each
        tid = 100 + n
        frame = a.pipeline().begin(tid)
        for k in range(8):
            frame.lock(tid, "B{}-{}".format(n, k), "S" if k % 2 else "X")
        assert all(row["ok"] for row in await frame.submit())
        await a.commit(tid)
    records = (await a.stats())["journal_records"] - records
    assert records == 2 * BATCHED, (
        "{} batched transactions journaled {} records, expected "
        "{}".format(BATCHED, records, 2 * BATCHED)
    )
    # One more batch frame stays open across the kill: recovery has to
    # rebuild live locks out of a ``batch`` record.
    t3 = 200
    held = await b.pipeline().begin(t3).lock(t3, "R4", "X").lock(
        t3, "R5", "IS"
    ).submit()
    assert [row.get("status") for row in held[1:]] == ["granted"] * 2
    t1 = await a.begin()
    t2 = await b.begin()
    assert await a.acquire(t1, "R1", "X")
    assert await a.acquire(t1, "R2", "IX")
    assert await b.acquire(t2, "R3", "S")
    queued = await b.acquire(t2, "R1", "S", wait=False)
    assert queued is False, "R1 S should queue behind the X grant"
    snapshot = canonical_dump(await a.dump())
    # Deliberately no close(): the kill lands while both sessions are
    # attached, exactly the crash the journal must absorb.
    return {
        "snapshot": snapshot,
        "a": (a.session, a.token, t1),
        "b": (b.session, b.token, t2, t3),
        "epoch": a.epoch,
    }


async def drive_after(port: int, before: dict):
    sid_a, token_a, t1 = before["a"]
    sid_b, token_b, t2, t3 = before["b"]
    a = await AsyncLockClient.resume("127.0.0.1", port, sid_a, token_a)
    b = await AsyncLockClient.resume("127.0.0.1", port, sid_b, token_b)
    problems = []
    try:
        if a.resumed_tids != [t1] or b.resumed_tids != sorted([t2, t3]):
            problems.append(
                "sessions resumed with wrong transactions: "
                "{} / {}".format(a.resumed_tids, b.resumed_tids)
            )
        if a.epoch != before["epoch"] + 1:
            problems.append(
                "restart epoch did not increment: {} -> {}".format(
                    before["epoch"], a.epoch
                )
            )
        after = canonical_dump(await a.dump())
        if after != before["snapshot"]:
            problems.append("rebuilt table is not byte-identical")
        # The pre-crash state keeps working: commit releases R1, the
        # other session's queued wait becomes grantable on retry.
        await a.commit(t1)
        if not await b.acquire(t2, "R1", "S", timeout=10.0):
            problems.append(
                "queued wait did not resume after the restarted commit"
            )
        await b.commit(t2)
        await b.commit(t3)
        if (await a.dump())["table"]["resources"]:
            problems.append("locks left behind after the last commit")
    finally:
        await a.close()
        await b.close()
    return problems, after


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact-dir", default=None)
    parser.add_argument("--lease", type=float, default=60.0)
    args = parser.parse_args()

    workdir = tempfile.mkdtemp(prefix="recovery-smoke-")
    journal = os.path.join(workdir, "sessions.jsonl")
    port = free_port()
    server = None
    before = after = None
    problems = []
    try:
        server = spawn_server(port, journal, args.lease)
        before = asyncio.run(drive_before(port))
        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=10.0)
        print("killed pid {} (SIGKILL) with clients attached".format(
            server.pid
        ))

        server = spawn_server(port, journal, args.lease)
        problems, after = asyncio.run(drive_after(port, before))
    except Exception as exc:  # noqa: BLE001 - smoke harness boundary
        problems.append("smoke harness error: {!r}".format(exc))
    finally:
        if server is not None and server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()

    if problems and args.artifact_dir:
        os.makedirs(args.artifact_dir, exist_ok=True)
        if os.path.exists(journal):
            shutil.copy(journal, os.path.join(args.artifact_dir,
                                              "sessions.jsonl"))
        with open(os.path.join(args.artifact_dir, "snapshots.json"),
                  "w") as handle:
            json.dump(
                {
                    "before": before["snapshot"] if before else None,
                    "after": after,
                    "problems": problems,
                },
                handle,
                indent=2,
            )
    shutil.rmtree(workdir, ignore_errors=True)

    if problems:
        for problem in problems:
            print("FAIL:", problem, file=sys.stderr)
        return 1
    print(
        "recovery smoke OK: {} records for {} batched transactions, "
        "byte-identical table, {} resumed sessions, epoch {} -> {}".format(
            2 * BATCHED, BATCHED, 2, before["epoch"], before["epoch"] + 1
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
