"""Crash the WAL at every sync point and demand exact recovery.

A random interleaved history of transactions runs against a
:class:`~repro.db.recovery.RecoverableDatabase`; the resulting log is
then truncated at *every* record boundary — each prefix is one possible
crash instant, including mid-transaction and between a write and its
commit record — and restart recovery of each prefix is checked against
an independent winners-only replay oracle (strict 2PL makes replaying
committed writes in log order exact).  Recovery must also be
idempotent: recovering the already-recovered log (with its appended
loser-abort records) changes nothing — a crash *during* recovery is
just another crash.  The history itself crashes and restarts too, as
often as the draw says: each restart must bring back exactly what was
committed, and the log keeps growing across restarts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.database import Blocked
from repro.db.recovery import RecoverableDatabase
from repro.db.wal import WriteAheadLog, recover

KEYS = ("a", "b", "c", "d")
SLOTS = 3

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(min_value=0, max_value=SLOTS - 1),
            st.sampled_from(KEYS),
            st.integers(min_value=0, max_value=9),
        ),
        st.tuples(
            st.just("commit"),
            st.integers(min_value=0, max_value=SLOTS - 1),
        ),
        st.tuples(
            st.just("abort"),
            st.integers(min_value=0, max_value=SLOTS - 1),
        ),
        st.just(("crash", 0)),
    ),
    max_size=30,
)


def run_history(ops) -> WriteAheadLog:
    """Execute a random multi-transaction history, crashing and
    restarting where the draw says; leave stragglers in flight (they
    become the losers of later crash points)."""
    db = RecoverableDatabase()
    db.create_table("t", {"a": 100, "b": 50})
    committed = {"a": 100, "b": 50}
    slots = [None] * SLOTS
    writes = [[] for _ in range(SLOTS)]
    for op in ops:
        kind, slot = op[0], op[1]
        if kind == "crash":
            db = db.simulate_crash()
            slots = [None] * SLOTS
            writes = [[] for _ in range(SLOTS)]
            assert db._tables == {"t": committed}, (
                "a restart lost a committed write or kept an undone one"
            )
        elif kind == "write":
            if slots[slot] is None:
                slots[slot] = db.begin()
            try:
                db.write(slots[slot], "t", op[2], op[3])
                writes[slot].append((op[2], op[3]))
            except Blocked:
                # Sequential test: a lock conflict cannot resolve, so
                # the blocked transaction gives up immediately.
                db.abort(slots[slot])
                slots[slot] = None
                writes[slot] = []
        elif slots[slot] is not None:
            if kind == "commit":
                db.commit(slots[slot])
                committed.update(writes[slot])
            else:
                db.abort(slots[slot])
            slots[slot] = None
            writes[slot] = []
    return db.wal


def winners_only_replay(records):
    """The oracle: committed transactions' writes replayed in log
    order over the initial loads — nothing else exists after a crash."""
    winners = {r.tid for r in records if r.kind == "commit"}
    tables = {}
    for record in records:
        if record.kind == "create":
            tables.setdefault(record.table, {})
        elif record.kind == "load":
            tables.setdefault(record.table, {})[record.key] = record.after
        elif record.kind == "write" and record.tid in winners:
            tables.setdefault(record.table, {})[record.key] = record.after
    return tables


def truncated(records, length: int) -> WriteAheadLog:
    log = WriteAheadLog()
    for record in records[:length]:
        log.append(record)
    return log


class TestCrashAtEverySyncPoint:
    @given(ops=ops_strategy)
    @settings(max_examples=40)
    def test_every_prefix_recovers_to_committed_state(self, ops):
        records = run_history(ops).records()
        for length in range(len(records) + 1):
            log = truncated(records, length)
            assert recover(log) == winners_only_replay(records[:length]), (
                "crash after record {} of {} recovered wrongly".format(
                    length, len(records)
                )
            )

    @given(ops=ops_strategy)
    @settings(max_examples=40)
    def test_recovery_is_idempotent_at_every_prefix(self, ops):
        """Recovering the recovered log (crash during recovery) is a
        no-op: the appended loser-abort records change nothing."""
        records = run_history(ops).records()
        for length in range(len(records) + 1):
            log = truncated(records, length)
            first = recover(log)
            assert recover(log) == first

    @given(ops=ops_strategy)
    @settings(max_examples=25)
    def test_restarted_database_is_usable_at_every_prefix(self, ops):
        """A database rebuilt from any crash prefix accepts new work,
        its lock table starts empty and its tids start above the log's."""
        records = run_history(ops).records()
        for length in range(0, len(records) + 1, max(1, len(records) // 6)):
            log = truncated(records, length)
            restarted = RecoverableDatabase(wal=log)
            for table, rows in recover(log).items():
                restarted.create_table_silently(table, rows)
            assert set(restarted.core.table.active_tids()) == set()
            if "t" in restarted._tables:
                probe = restarted.begin()
                assert all(probe > record.tid for record in records[:length])
                restarted.write(probe, "t", "probe", 1)
                restarted.commit(probe)
                check = restarted.begin()
                assert restarted.read(check, "t", "probe") == 1
