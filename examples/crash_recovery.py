"""Crash recovery meets deadlock resolution.

Runs transfers on the write-ahead-logged database, lets a deadlock
victim be chosen mid-flight, then pulls the plug with one transaction
still uncommitted.  Restart recovery rebuilds the state from the log:
committed transfers survive, the in-flight one and the deadlock victim
leave no trace.

Run:  python examples/crash_recovery.py
"""

from repro.db.database import Blocked
from repro.db.recovery import RecoverableDatabase


def main() -> None:
    db = RecoverableDatabase()
    db.create_table("accounts", {"alice": 100, "bob": 100, "carol": 100})

    # A committed transfer: alice -> bob, 20.
    t1 = db.begin()
    db.write(t1, "accounts", "alice", 80)
    db.write(t1, "accounts", "bob", 120)
    db.commit(t1)
    print("T1 committed: alice->bob 20")

    # Two crossing transfers deadlock; one becomes a victim.
    t2, t3 = db.begin(), db.begin()
    db.write(t2, "accounts", "bob", 110)
    db.write(t3, "accounts", "carol", 90)
    for tid, key, value in ((t2, "carol", 80), (t3, "bob", 130)):
        try:
            db.write(tid, "accounts", key, value)
        except Blocked:
            print("T{} blocked on {}".format(tid, key))
    result = db.core.detect()
    print("deadlock detected; victim:", result.aborted)

    # The survivor keeps working but never commits... and then: crash.
    survivor = t3 if db.core.was_aborted(t2) else t2
    print("T{} survives, writes more, but the system crashes before "
          "it commits".format(survivor))

    print("\nlog: {} records".format(len(db.wal)))
    restarted = db.simulate_crash()

    probe = restarted.begin()
    balances = {
        name: restarted.read(probe, "accounts", name)
        for name in ("alice", "bob", "carol")
    }
    print("recovered balances:", balances)
    assert balances == {"alice": 80, "bob": 120, "carol": 100}, (
        "only T1's committed transfer may survive the crash"
    )
    total = sum(balances.values())
    print("total money: {} (conserved)".format(total))
    assert total == 300


if __name__ == "__main__":
    main()
