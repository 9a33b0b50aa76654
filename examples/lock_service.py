"""The lock manager as a network service, used by real OS processes.

A :class:`~repro.service.server.LockServer` runs in this process; three
*worker subprocesses* each connect a blocking
:class:`~repro.service.client.RemoteLockManager` to it and execute lock
requests on command (a line protocol over their stdin/stdout).  The
parent drives the exact request sequence of the paper's Example 4.1, so
the nine transactions — spread across three separate processes — weave
the canonical H/W-TWBG deadlock over TCP.  One remote detection pass
then resolves it the way Section 4 promises: TDR-2 repositions R2's
queue and nobody is aborted.

Run:  python examples/lock_service.py
"""

import asyncio
import os
import subprocess
import sys

WORKERS = 3

#: Example 4.1 reached through real requests (tid, rid, mode, granted?).
EXAMPLE_41_REQUESTS = [
    (7, "R2", "IS", True),
    (1, "R1", "IX", True),
    (2, "R1", "IS", True),
    (3, "R1", "IX", True),
    (4, "R1", "IS", True),
    (1, "R1", "S", False),   # IX -> SIX conversion, blocked
    (2, "R1", "S", False),   # IS -> S conversion, blocked
    (5, "R1", "IX", False),
    (6, "R1", "S", False),
    (7, "R1", "IX", False),
    (8, "R2", "X", False),
    (9, "R2", "IX", False),
    (3, "R2", "S", False),
    (4, "R2", "X", False),
]


# ---------------------------------------------------------------- worker


def worker_main() -> int:
    """Line-protocol slave: connect, acquire, commit, quit."""
    from repro.service import RemoteLockManager

    manager = None
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        command = parts[0]
        if command == "connect":
            manager = RemoteLockManager(parts[1], int(parts[2]))
            print("ok", flush=True)
        elif command == "acquire":
            tid, rid, mode = int(parts[1]), parts[2], parts[3]
            granted = manager.acquire(tid, rid, mode, timeout=0.05)
            print("granted" if granted else "blocked", flush=True)
        elif command == "commit":
            manager.commit(int(parts[1]))
            print("ok", flush=True)
        elif command == "quit":
            break
    if manager is not None:
        manager.close()
    return 0


# ---------------------------------------------------------------- parent


class Worker:
    """One subprocess running ``worker_main`` at the far end of a pipe."""

    def __init__(self, index: int) -> None:
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__import__("repro").__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in [src_root, env.get("PYTHONPATH")]
            if p
        )
        self.index = index
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def call(self, command: str) -> str:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline().strip()

    def quit(self) -> None:
        try:
            self.process.stdin.write("quit\n")
            self.process.stdin.flush()
        except (BrokenPipeError, ValueError):
            pass
        self.process.wait(timeout=10.0)


def admin(server, coro_fn):
    """Run one admin interaction against the server on a fresh client."""
    from repro.service import AsyncLockClient

    async def go():
        client = await AsyncLockClient.connect(server.host, server.port)
        try:
            return await coro_fn(client)
        finally:
            await client.close()

    return asyncio.run(go())


def main() -> None:
    from repro.service import LoopbackServer

    # The periodic policy and no detector clock: the walkthrough stages
    # Example 4.1 for an explicit detection pass.
    with LoopbackServer(period=None) as server:
        workers = [Worker(i) for i in range(WORKERS)]
        try:
            by_tid = lambda tid: workers[tid % WORKERS]
            for worker in workers:
                assert worker.call(
                    "connect {} {}".format(server.host, server.port)
                ) == "ok"
            print(
                "{} worker processes connected to {}:{}".format(
                    WORKERS, server.host, server.port
                )
            )

            print("\nDriving Example 4.1's request sequence:")
            for tid, rid, mode, expect in EXAMPLE_41_REQUESTS:
                worker = by_tid(tid)
                answer = worker.call(
                    "acquire {} {} {}".format(tid, rid, mode)
                )
                print(
                    "  worker {}: T{} requests {} on {}: {}".format(
                        worker.index, tid, mode, rid, answer
                    )
                )
                assert answer == ("granted" if expect else "blocked")

            print("\nThe server's view of the deadlock:")
            print(admin(server, lambda c: c.inspect())["report"])

            print("Remote detection pass:")
            result = admin(server, lambda c: c.detect())
            print("  deadlock found:", result.deadlock_found)
            print("  abort-free:    ", result.abort_free)
            print("  aborted:       ", result.aborted or "nobody")
            print(
                "  repositioned:  ",
                ", ".join(
                    "{} (delaying {})".format(
                        e.rid,
                        ", ".join("T{}".format(t) for t in e.delayed),
                    )
                    for e in result.repositions
                ),
            )
            assert result.abort_free and not result.aborted

            print("\nDraining: committing transactions as they unblock")
            outstanding = set(range(1, 10))
            rounds = 0
            while outstanding:
                rounds += 1
                blocked = set(
                    admin(server, lambda c: c.inspect())["blocked"]
                )
                ready = sorted(outstanding - blocked)
                assert ready, "drain stalled: {} blocked".format(blocked)
                for tid in ready:
                    assert by_tid(tid).call("commit {}".format(tid)) == "ok"
                    outstanding.discard(tid)
                print(
                    "  round {}: committed {}".format(
                        rounds,
                        ", ".join("T{}".format(t) for t in ready),
                    )
                )

            stats = admin(server, lambda c: c.stats())
            print(
                "\nAll nine transactions committed ({} commits, "
                "{} aborts, {} abort-free resolution)".format(
                    stats["commits"],
                    stats["aborts"],
                    stats["abort_free_resolutions"],
                )
            )
            assert stats["commits"] == 9
            assert stats["victims_aborted"] == 0
        finally:
            for worker in workers:
                worker.quit()


if __name__ == "__main__":
    if "--worker" in sys.argv:
        sys.exit(worker_main())
    main()
