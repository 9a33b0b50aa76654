"""Real threads on the thread-safe facade.

Eight worker threads run short two-lock transactions against four hot
resources through :class:`ShardedLockManager`; a background detector
thread runs the periodic algorithm every 20 ms.  Threads block inside
``acquire`` until granted, and deadlock victims see
``TransactionAborted`` and retry.

Run:  python examples/threaded_workers.py
"""

import random
import threading
import time

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.lockmgr import ShardedLockManager

RESOURCES = ["R{}".format(i) for i in range(4)]
WORKERS = 8
TXNS_PER_WORKER = 6


def main() -> None:
    clm = ShardedLockManager(period=0.02)
    stats = {"commits": 0, "aborts": 0}
    stats_lock = threading.Lock()

    def worker(worker_id: int) -> None:
        rng = random.Random(worker_id)
        for attempt in range(TXNS_PER_WORKER):
            tid = worker_id * 100 + attempt
            first, second = rng.sample(RESOURCES, 2)
            try:
                clm.acquire(tid, first, LockMode.X)
                time.sleep(0.002)  # hold the first lock: contention!
                clm.acquire(tid, second, LockMode.X)
                clm.commit(tid)
                with stats_lock:
                    stats["commits"] += 1
            except TransactionAborted:
                clm.abort(tid)
                with stats_lock:
                    stats["aborts"] += 1

    threads = [
        threading.Thread(target=worker, args=(i,), name="worker-%d" % i)
        for i in range(1, WORKERS + 1)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    clm.close()

    print("workers           :", WORKERS)
    print("transactions      :", WORKERS * TXNS_PER_WORKER)
    print("commits           :", stats["commits"])
    print("deadlock aborts   :", stats["aborts"])
    print("wall time         : {:.3f}s".format(elapsed))
    print("still deadlocked? :", clm.deadlocked())
    assert stats["commits"] + stats["aborts"] == WORKERS * TXNS_PER_WORKER


if __name__ == "__main__":
    main()
