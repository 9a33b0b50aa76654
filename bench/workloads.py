"""Seeded input generators.

``--seed`` feeds these and nothing else: the program under test only
ever receives the generated transactions.  The same seed gives the same
inputs.

A *program* is the lock sequence of one transaction, a list of
``(rid, mode_name)`` pairs issued in order; a pair naming a resource
the program already holds is a conversion.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator, List, Sequence, Tuple

Program = List[Tuple[str, str]]

#: svc_uniform / svc_batch_durable: wide table, almost no contention.
UNIFORM_RIDS = 4096
UNIFORM_LOCKS = 8
UNIFORM_X_SHARE = 0.20

#: svc_hotspot: Zipf over a small table, with S -> X upgrades.  A hotter
#: point (512 rids, 15% upgrades) sits on the thrashing knee and drifts
#: 10% run to run; this one repeats within 2%.
HOTSPOT_RIDS = 1024
HOTSPOT_LOCKS = 6
HOTSPOT_THETA = 0.8
HOTSPOT_X_SHARE = 0.10
HOTSPOT_UPGRADE_SHARE = 0.10


def _stream_rng(seed: int, stream: int) -> random.Random:
    return random.Random("{}:{}".format(seed, stream))


def uniform_programs(seed: int, stream: int) -> Iterator[Program]:
    """8 locks on distinct rids uniform over 4096, 80% S / 20% X."""
    rng = _stream_rng(seed, stream)
    while True:
        rids = rng.sample(range(UNIFORM_RIDS), UNIFORM_LOCKS)
        yield [
            (
                "u{}".format(rid),
                "X" if rng.random() < UNIFORM_X_SHARE else "S",
            )
            for rid in rids
        ]


def _zipf_cdf(count: int, theta: float) -> List[float]:
    weights = [1.0 / (rank ** theta) for rank in range(1, count + 1)]
    total = sum(weights)
    return list(itertools.accumulate(weight / total for weight in weights))


def hotspot_programs(seed: int, stream: int) -> Iterator[Program]:
    """6 accesses Zipf(0.8) over 1024 rids (10% X), then 10% of the
    transaction's S locks upgraded to X — conversions, hence UPR,
    conversion deadlocks and TDR-2 candidates."""
    rng = _stream_rng(seed, stream)
    cdf = _zipf_cdf(HOTSPOT_RIDS, HOTSPOT_THETA)
    while True:
        ranks: List[int] = []
        while len(ranks) < HOTSPOT_LOCKS:
            rank = min(bisect.bisect_left(cdf, rng.random()), HOTSPOT_RIDS - 1)
            if rank not in ranks:
                ranks.append(rank)
        program = [
            (
                "h{}".format(rank),
                "X" if rng.random() < HOTSPOT_X_SHARE else "S",
            )
            for rank in ranks
        ]
        program.extend(
            (rid, "X")
            for rid, mode in list(program)
            if mode == "S" and rng.random() < HOTSPOT_UPGRADE_SHARE
        )
        yield program


def take(programs: Iterator[Program], count: int) -> List[Program]:
    return list(itertools.islice(programs, count))


# -- planted deadlocks (detect_ballast) ------------------------------------

#: Cycles planted per round, by kind.  The mix is fixed (only shapes'
#: sizes, resource names and planting order come from the seed), so
#: ``abort_free_share`` depends on the detector alone and must repeat
#: exactly for any seed.
RINGS_PER_ROUND = 4
UPGRADE_PAIRS_PER_ROUND = 2
QUEUE_CYCLES_PER_ROUND = 2

#: Planted transaction ids start here; ballast readers sit below.
PLANT_TID_BASE = 1_000_000
#: Each round owns a private tid range, identical across bindings.
TIDS_PER_ROUND = 128


class Plant:
    """One planted deadlock: the request sequence that reaches it.

    ``requests`` lists ``(tid, rid, mode_name, granted)`` in issue
    order — ``granted`` is what a correct lock manager must answer.
    """

    def __init__(self, requests, tids: Sequence[int]) -> None:
        self.requests = requests
        self.tids = list(tids)


def _ring(tids: Sequence[int], prefix: str) -> Plant:
    """Ti holds Ri (X) and waits for R(i-1); T1 closes the ring."""
    size = len(tids)
    requests = [
        (tid, "{}r{}".format(prefix, position), "X", True)
        for position, tid in enumerate(tids)
    ]
    requests.extend(
        (tid, "{}r{}".format(prefix, position - 1), "X", False)
        for position, tid in enumerate(tids)
        if position > 0
    )
    requests.append((tids[0], "{}r{}".format(prefix, size - 1), "X", False))
    return Plant(requests, tids)


def _upgrade_pair(tids: Sequence[int], prefix: str) -> Plant:
    """Two S holders of one resource both upgrading to X."""
    first, second = tids
    rid = prefix + "r"
    return Plant(
        [
            (first, rid, "S", True),
            (second, rid, "S", True),
            (first, rid, "X", False),
            (second, rid, "X", False),
        ],
        tids,
    )


def _queue_cycle(tids: Sequence[int], prefix: str) -> Plant:
    """The paper's Example 4.1: nine transactions over two resources,
    four overlapping cycles that TDR-2 breaks without any abort."""
    t = dict(zip(range(1, 10), tids))
    r1, r2 = prefix + "r1", prefix + "r2"
    return Plant(
        [
            (t[7], r2, "IS", True),
            (t[1], r1, "IX", True),
            (t[2], r1, "IS", True),
            (t[3], r1, "IX", True),
            (t[4], r1, "IS", True),
            (t[1], r1, "S", False),
            (t[2], r1, "S", False),
            (t[5], r1, "IX", False),
            (t[6], r1, "S", False),
            (t[7], r1, "IX", False),
            (t[8], r2, "X", False),
            (t[9], r2, "IX", False),
            (t[3], r2, "S", False),
            (t[4], r2, "X", False),
        ],
        tids,
    )


def planted_round(seed: int, index: int) -> List[Plant]:
    """The deadlocks of round ``index``: ring sizes (2-5), resource
    names and planting order come from the seed; transaction ids rise
    in planting order so tie-breaks do not depend on the binding."""
    rng = random.Random("{}:round:{}".format(seed, index))
    kinds = (
        ["ring"] * RINGS_PER_ROUND
        + ["upgrade"] * UPGRADE_PAIRS_PER_ROUND
        + ["queue"] * QUEUE_CYCLES_PER_ROUND
    )
    rng.shuffle(kinds)
    next_tid = PLANT_TID_BASE + index * TIDS_PER_ROUND
    plants: List[Plant] = []
    for slot, kind in enumerate(kinds):
        prefix = "p{}.{}.{}.".format(index, slot, rng.randrange(1 << 20))
        if kind == "ring":
            size = rng.randint(2, 5)
            builder = _ring
        elif kind == "upgrade":
            size = 2
            builder = _upgrade_pair
        else:
            size = 9
            builder = _queue_cycle
        tids = list(range(next_tid, next_tid + size))
        next_tid += size
        plants.append(builder(tids, prefix))
    return plants
