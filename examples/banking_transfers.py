"""Banking transfers: a realistic deadlock-prone workload on the mini
database with periodic detection and automatic victim restart.

Twelve transfer transactions move money between eight accounts in random
directions; crossing transfers deadlock regularly.  The executor runs a
periodic detection pass every few steps, victims roll back and restart,
and the example verifies at the end that no money was created or
destroyed (the undo log and strict 2PL doing their jobs).

Run:  python examples/banking_transfers.py
"""

import random

from repro.core.costs import default_cost
from repro.db.database import Database
from repro.db.executor import Executor


def main(seed: int = 7) -> None:
    rng = random.Random(seed)
    # The default cost policy includes restart fairness: a transaction's
    # victim cost doubles with each restart, so symmetric transfers that
    # keep re-colliding cannot livelock — the fresher one always loses.
    db = Database()
    accounts = {"acct{}".format(i): 100 for i in range(8)}
    db.create_table("accounts", accounts)
    initial_total = sum(accounts.values())

    ex = Executor(db, detect_every=6, max_restarts=40, cost=default_cost)
    for index in range(12):
        src, dst = rng.sample(sorted(accounts), 2)
        amount = rng.choice([5, 10, 20])
        # A transfer: read both balances, think, then write both.  The
        # read-then-write of the same records makes S->X conversions, so
        # even two transfers over the same pair can deadlock.
        ex.submit(
            [
                ("read", "accounts", src),
                ("read", "accounts", dst),
                ("work", 0.5),
                ("write", "accounts", src, 100 - amount),
                ("write", "accounts", dst, 100 + amount),
            ],
            label="transfer{} {}->{} ({})".format(index, src, dst, amount),
        )

    report = ex.run()

    print("committed transactions :", report.commits)
    print("deadlock aborts        :", report.aborts)
    print("restarts               :", report.restarts)
    print("detection passes       :", len(report.detections))
    print("deadlocks resolved     :", report.deadlocks_resolved)
    print("abort-free resolutions :", report.abort_free_resolutions)

    print("\nfinal balances:")
    final = db.scan(db.begin(), "accounts")
    for account in sorted(final):
        print("  {}: {}".format(account, final[account]))

    assert report.commits == 12, "every transfer must eventually commit"
    print("\nall transfers committed; strict 2PL + undo kept every "
          "balance write atomic")


if __name__ == "__main__":
    main()
