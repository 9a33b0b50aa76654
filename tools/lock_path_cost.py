#!/usr/bin/env python
"""What one uncontended lock costs, counted — no clock anywhere.

Four deterministic figures, each taken after a warm-up so lazily
created series and codecs are out of the way:

* **calls** — Python-level and C-level calls (``sys.setprofile``) for one
  granted ``ServiceCore.lock_step`` + ``pump`` and for one
  ``finish_step`` + ``pump`` over eight sole-holder locks, telemetry on
  and off, with ``ShardedLockCore.lock``/``finish`` and bare
  ``scheduler.request``/``release_all`` beside them, and on
  ``shards=4`` a blocking request on a transaction's second shard and
  ``is_blocked`` (both read the core's wait index);
* **objects** — gc-tracked objects retained per held lock (a transaction
  of :data:`HELD` S locks on fresh resources, counted by
  ``gc.get_objects()`` before and after, once the manager's event ring
  has wrapped — a cold ring keeps one more, the ``Granted`` event, until
  it has);
* **bytes** — ``tracemalloc`` bytes per reader, resource id included,
  for :data:`READERS` one-lock S-readers on ``ShardedLockCore(shards=4)``
  (the benchmark's ``detect_ballast`` table);
* **pass** — Python-level and C-level calls for one ``detect()`` over
  the benchmark's first planted round (``planted_round(5, 0)``: 38
  transactions, 8 deadlock cycles) on ``ShardedLockCore`` with
  ``shards=4`` (routed: staged on a merged copy, resolved on the live
  shards) and ``shards=1`` (in place), and on ``LocalCluster(2)`` (the
  coordinator's pass: ``snapshot`` payloads and ``resolve`` plans
  through the JSON wire codec).

Exits 1 when a figure is over its ratchet (:data:`CEILINGS`;
``tests/lockmgr/test_lock_path_cost.py`` asserts the same table in
tier-1).  ``--src`` measures another checkout, e.g. the parent commit.

Usage::

    python tools/lock_path_cost.py
    python tools/lock_path_cost.py --src ../parent/src
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Locks held while objects are counted, and readers while bytes are.
HELD = 512
READERS = 16384

#: The ratchet: figure name -> the most it may read.
CEILINGS = {
    # 27 and 58 (Python 3.11) while every lock event ran a chain of
    # Python calls into its span; now it is appended at C cost and
    # folded once per step.
    "lock_step+pump py (telemetry on)": 17,
    "lock_step+pump py (telemetry off)": 22,
    "ShardedLockCore.lock py": 13,
    # Read off the wait index: 18 and 7 while they scanned the shards.
    "ShardedLockCore.lock py (shards=4, second shard)": 14,
    "ShardedLockCore.is_blocked py (shards=4)": 3,
    "scheduler.request py": 10,
    "finish_step+pump x8 py (telemetry on)": 51,
    # Measured 997 / 654 / 2518 (Python 3.11), plus 5%.
    "detect planted round py (shards=4)": 1046,
    "detect planted round py (shards=1)": 687,
    "detect planted round py (LocalCluster(2))": 2643,
    # Reads 4.0098 (Python 3.11): the core's 3, the open span, and a
    # few objects over the 512 locks that are no lock's own.
    "objects per held lock (ServiceCore, telemetry on)": 4.05,
    "objects per held lock (ShardedLockCore)": 3,
    "bytes per ballast reader (shards=4)": 650,
}


def count_calls(step: Callable[[], object]) -> Tuple[int, int]:
    """``(python calls, C calls)`` made by ``step()`` — the profiler's
    ``call`` and ``c_call`` events; ``step`` itself is one of the calls,
    turning the profiler off is not."""
    counts = [0, 0]

    def profiler(frame, event, arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(profiler)
    try:
        step()
    finally:
        sys.setprofile(None)
    return counts[0], counts[1] - 1


def retained_objects(hold: Callable[[int], object], count: int) -> float:
    """gc-tracked objects that ``hold(count)`` leaves alive, per lock."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        keep = hold(count)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    del keep
    return (after - before) / count


def measure() -> Dict[str, object]:
    """Every figure, by the names :data:`CEILINGS` uses (call figures
    are ``(python, C)`` pairs)."""
    from repro.core.modes import LockMode
    from repro.lockmgr import scheduler
    from repro.lockmgr.events import EVENT_LOG_CAPACITY
    from repro.lockmgr.lock_table import LockTable
    from repro.lockmgr.sharded import ShardedLockCore
    from repro.obs.instrument import Telemetry
    from repro.service.core import ServiceCore

    S = LockMode.S
    figures: Dict[str, object] = {}

    def wrap_ring(lock, finish):
        for tid in range(1000, 1000 + EVENT_LOG_CAPACITY // 8 + 1):
            for k in range(8):
                lock(tid, "w{}".format(k))
            finish(tid)

    def service(enabled: bool):
        core = ServiceCore(
            policy="periodic", shards=1, telemetry=Telemetry(enabled=enabled)
        )
        session = core.open_session()
        for tid in (1, 2):  # warm-up: series created, caches filled
            core.begin_step(session, tid)
            for k in range(8):
                core.lock_step(session, tid, "w{}".format(k), S)
                core.pump()
            core.finish_step(session, tid, False)
            core.pump()
        return core, session

    for enabled in (True, False):
        label = "(telemetry {})".format("on" if enabled else "off")
        core, session = service(enabled)
        core.begin_step(session, 7)
        for k in range(7):
            core.lock_step(session, 7, "r{}".format(k), S)

        def lock_step():
            core.lock_step(session, 7, "r7", S)
            core.pump()

        def finish_step():
            core.finish_step(session, 7, False)
            core.pump()

        python, c = count_calls(lock_step)
        figures["lock_step+pump py " + label] = python
        figures["lock_step+pump C " + label] = c
        python, c = count_calls(finish_step)
        figures["finish_step+pump x8 py " + label] = python
        figures["finish_step+pump x8 C " + label] = c

    manager = ShardedLockCore(shards=1, policy="periodic")
    for k in range(8):
        manager.lock(1, "w{}".format(k), S)
    manager.finish(1)
    for k in range(7):
        manager.lock(7, "r{}".format(k), S)
    python, c = count_calls(lambda: manager.lock(7, "r7", S))
    figures["ShardedLockCore.lock py"] = python
    figures["ShardedLockCore.lock C"] = c
    python, c = count_calls(lambda: manager.finish(7))
    figures["ShardedLockCore.finish x8 py"] = python
    figures["ShardedLockCore.finish x8 C"] = c

    # The closing request of a planted two-cycle across shards: T1 holds
    # ``a``, T2 holds ``b`` and waits at ``a``; T1 asks for ``b``, a
    # request on its second shard that blocks.  The Axiom-1 check and
    # ``is_blocked`` read the wait index, no shard scan.
    X = LockMode.X
    routed = ShardedLockCore(shards=4, policy="periodic")
    a, b = "p0", next(
        rid for rid in map("p{}".format, range(1, 64))
        if routed.shard_index(rid) != routed.shard_index("p0")
    )
    for first, second in ((11, 12), (1, 2)):  # warm-up, then measured
        routed.lock(first, a, X)
        routed.lock(second, b, X)
        routed.lock(second, a, X)
        if first == 11:
            routed.lock(first, b, X)
            routed.finish(first)
            routed.finish(second)
    python, c = count_calls(lambda: routed.lock(1, b, X))
    figures["ShardedLockCore.lock py (shards=4, second shard)"] = python
    figures["ShardedLockCore.lock C (shards=4, second shard)"] = c
    python, c = count_calls(lambda: routed.is_blocked(1))
    figures["ShardedLockCore.is_blocked py (shards=4)"] = python
    figures["ShardedLockCore.is_blocked C (shards=4)"] = c

    table = LockTable()
    for k in range(7):
        scheduler.request(table, 7, "r{}".format(k), S)
    python, c = count_calls(lambda: scheduler.request(table, 7, "r7", S))
    figures["scheduler.request py"] = python
    figures["scheduler.request C"] = c
    python, c = count_calls(lambda: scheduler.release_all(table, 7))
    figures["scheduler.release_all x8 py"] = python
    figures["scheduler.release_all x8 C"] = c

    core, session = service(True)
    wrap_ring(
        lambda tid, rid: core.lock_step(session, tid, rid, S),
        lambda tid: core.finish_step(session, tid, False),
    )
    core.pump()  # folds the wrap's telemetry, as the server's pump does
    core.begin_step(session, 9)

    def hold_through_service(count: int):
        for k in range(count):
            core.lock_step(session, 9, "h{}".format(k), S)
            core.pump()
        return core

    figures["objects per held lock (ServiceCore, telemetry on)"] = (
        retained_objects(hold_through_service, HELD)
    )
    manager = ShardedLockCore(shards=1, policy="periodic")
    wrap_ring(lambda tid, rid: manager.lock(tid, rid, S), manager.finish)
    manager.lock(9, "w", S)

    def hold_in_manager(count: int):
        for k in range(count):
            manager.lock(9, "h{}".format(k), S)
        return manager

    figures["objects per held lock (ShardedLockCore)"] = retained_objects(
        hold_in_manager, HELD
    )

    ballast = ShardedLockCore(shards=4, policy="periodic")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(READERS):
            ballast.lock(index + 1, "b{}".format(index), S)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    figures["bytes per ballast reader (shards=4)"] = (after - before) / READERS

    from bench.workloads import planted_round
    from repro.core.modes import parse_mode

    from repro.cluster import LocalCluster

    hosts = [
        (" (shards={})".format(shards),
         ShardedLockCore(shards=shards, policy="periodic"))
        for shards in (4, 1)
    ]
    hosts.append((" (LocalCluster(2))", LocalCluster(workers=2, wire="json")))
    for label, planted in hosts:
        for plant in planted_round(5, 0):
            for tid, rid, mode, _ in plant.requests:
                planted.lock(tid, rid, parse_mode(mode))
        python, c = count_calls(planted.detect)
        figures["detect planted round py" + label] = python
        figures["detect planted round C" + label] = c
    return figures


def over_ceiling(figures: Dict[str, object]) -> List[str]:
    """The names of the figures that read over their ratchet."""
    return [
        name for name, ceiling in CEILINGS.items() if figures[name] > ceiling
    ]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    src = SRC
    if argv[:1] == ["--src"] and len(argv) == 2:
        src, argv = os.path.abspath(argv[1]), []
    if argv:
        print(__doc__.strip().split("Usage::")[1], file=sys.stderr)
        return 2
    for path in (src, REPO_ROOT):  # the package, and ``bench`` for the plants
        if path not in sys.path:
            sys.path.insert(0, path)
    figures = measure()
    print("{:<52}{:>10}{:>10}".format("figure", "value", "ceiling"))
    for name, value in figures.items():
        shown = "{:.1f}".format(value) if isinstance(value, float) else value
        print("{:<52}{:>10}{:>10}".format(
            name, shown, CEILINGS.get(name, "")
        ))
    over = over_ceiling(figures)
    if over:
        print("OVER THE RATCHET: " + "; ".join(over), file=sys.stderr)
        return 1
    print("lock path cost within its ratchet")
    return 0


if __name__ == "__main__":
    sys.exit(main())
