"""Multiple granularity locking on an inventory database.

Three kinds of transactions exercise all five lock modes:

* **auditors** take SIX on the whole table (scan now, spot-fix later) —
  the mode that only exists because of multiple granularity locking;
* **updaters** take IX intents and X record locks;
* **reporters** take S table scans.

The run prints which intention locks each transaction held, and then
demonstrates an upgrade deadlock (two auditors) being resolved by the
periodic detector.

Run:  python examples/mgl_inventory.py
"""

from repro.core.modes import LockMode
from repro.db.database import Database, Blocked
from repro.db.executor import Executor


def scripted_run() -> None:
    db = Database(name="store")
    db.create_table("inventory", {"sku{}".format(i): 10 * i for i in range(6)})

    ex = Executor(db, detect_every=5, max_restarts=30)
    ex.submit(
        [
            ("scan_update", "inventory"),       # SIX on the table
            ("work", 1.0),
            ("write", "inventory", "sku1", 111),  # record X under SIX
        ],
        "auditor",
    )
    ex.submit(
        [
            ("write", "inventory", "sku2", 22),   # IX intents + X record
            ("work", 0.5),
            ("write", "inventory", "sku4", 44),
        ],
        "updater",
    )
    ex.submit([("scan", "inventory")], "reporter")  # S on the table

    report = ex.run()
    print("commits:", report.commits, " aborts:", report.aborts,
          " deadlocks:", report.deadlocks_resolved)
    final = db.scan(db.begin(), "inventory")
    print("final inventory:", dict(sorted(final.items())))
    assert final["sku1"] == 111 and final["sku2"] == 22


def intention_lock_tour() -> None:
    print("\n--- intention locks held by a single record write ---")
    db = Database(name="store")
    db.create_table("inventory", {"sku0": 0})
    tid = db.begin()
    db.write(tid, "inventory", "sku0", 99)
    for rid, mode in sorted(db.core.holding(tid).items()):
        print("  {:24s} {}".format(rid, mode.name))
    db.commit(tid)


def upgrade_deadlock() -> None:
    print("\n--- two auditors upgrading the same table: a conversion "
          "deadlock ---")
    db = Database(name="store")
    db.create_table("inventory", {"sku0": 0})
    a, b = db.begin(), db.begin()
    # Both take S on the table, then both try SIX (scan-for-update):
    db.scan(a, "inventory")
    db.scan(b, "inventory")
    for tid in (a, b):
        try:
            db.scan_for_update(tid, "inventory")
        except Blocked as blocked:
            print("  {} blocked converting S->SIX at {}".format(
                "T{}".format(tid), blocked.rid))
    print("  deadlocked?", db.core.deadlocked())
    result = db.core.detect()
    print("  detector aborted:", result.aborted)
    survivor = b if db.core.was_aborted(a) else a
    held = db.core.holding(survivor)
    print("  survivor T{} now holds {} on the table".format(
        survivor, held["store.inventory"].name))
    assert held["store.inventory"] is LockMode.SIX


if __name__ == "__main__":
    scripted_run()
    intention_lock_tour()
    upgrade_deadlock()
