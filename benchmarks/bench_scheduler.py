"""Lock-manager throughput microbenchmarks.

Not a paper table — engineering numbers a downstream adopter wants:
request/release costs at realistic table sizes and conversion handling.
"""

import random

from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable

MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.X)


def populate(table: LockTable, transactions: int, resources: int, seed=0):
    rng = random.Random(seed)
    for tid in range(1, transactions + 1):
        for _ in range(rng.randint(1, 4)):
            if table.is_blocked(tid):
                break
            scheduler.request(
                table,
                tid,
                "R{}".format(rng.randrange(resources)),
                rng.choice(MODES),
            )
    return table


def test_uncontended_grant_throughput(benchmark):
    table = LockTable()
    counter = [0]

    def one_grant():
        counter[0] += 1
        tid = counter[0]
        scheduler.request(table, tid, "R{}".format(tid), LockMode.X)

    benchmark(one_grant)


def test_request_against_loaded_table(benchmark):
    table = populate(LockTable(), transactions=200, resources=64)
    counter = [10_000]

    def request_and_release():
        counter[0] += 1
        tid = counter[0]
        scheduler.request(table, tid, "HOTTEST", LockMode.IS)
        scheduler.release_all(table, tid)

    benchmark(request_and_release)


def test_conversion_throughput(benchmark):
    table = LockTable()
    scheduler.request(table, 1, "R", LockMode.IS)

    def convert_up_and_nothing():
        # Covered re-request: the cheapest conversion path.
        scheduler.request(table, 1, "R", LockMode.IS)

    benchmark(convert_up_and_nothing)


def test_release_sweep_with_queue(benchmark):
    def build_and_release():
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.X)
        for tid in range(2, 12):
            scheduler.request(table, tid, "R", LockMode.S)
        scheduler.release_all(table, 1)  # grants nine readers
        return table

    table = benchmark(build_and_release)
    assert len(table.existing("R").holders) == 10

