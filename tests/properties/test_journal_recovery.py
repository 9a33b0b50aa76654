"""Crash the session journal at every record boundary and demand
prefix-consistent recovery.

A random interleaved history of sessions and transactions runs against
a :class:`~repro.service.core.ServiceCore` journaling to an in-memory
:class:`~repro.service.journal.SessionJournal`; the journal text is
then truncated at *every* line boundary — each prefix is one possible
``kill -9`` instant — and a fresh core is rebuilt from each prefix with
:func:`~repro.service.journal.recover_into`.  Three properties:

* every prefix replays into a structurally valid table (the full
  :func:`~repro.core.verify.verify_table` oracle holds at every cut);
* at cuts that land on an *operation* boundary the rebuilt RST/TST is
  **byte-identical** to the live table the moment that record was the
  journal's last — the dump recorded while the history ran;
* a torn or corrupted final line is equivalent to truncating it: the
  loader stops at the durable prefix and recovery matches the
  one-record-shorter journal exactly.

Recovery must also be idempotent: a journal that has already been
recovered (boot record appended) recovers again into the identical
table and session set — a crash *during* recovery is just another
crash.

Histories mix single-op steps (one record each) with ``batch`` frames
(one record per frame, whatever its sub-ops did: granted, blocked,
errored, committed), and the one-record-per-sub-op stream an older
server wrote for the same history must recover to the same bytes.
"""

from __future__ import annotations

import itertools
import json

from hypothesis import given
from hypothesis import strategies as st

from repro.core.modes import LockMode
from repro.core.serialize import table_to_dict
from repro.core.verify import verify_table
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal, recover_into

SLOTS = 3
RIDS = ("a", "b", "c")
MODES = (LockMode.S, LockMode.X, LockMode.IS, LockMode.IX)

#: A batch sub-op.  Mode index ``len(MODES)`` is no mode at all (the
#: sub-op errors); ``steal`` locks under a neighbour's transaction.
sub_ops = st.one_of(
    st.tuples(st.just("begin")),
    st.tuples(
        st.just("lock"),
        st.sampled_from(RIDS),
        st.integers(0, len(MODES)),
    ),
    st.tuples(st.just("steal"), st.sampled_from(RIDS)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("abort")),
)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(0, SLOTS - 1)),
        st.tuples(
            st.just("batch"),
            st.integers(0, SLOTS - 1),
            st.lists(sub_ops, min_size=1, max_size=6),
        ),
        st.tuples(
            st.just("lock"),
            st.integers(0, SLOTS - 1),
            st.sampled_from(RIDS),
            st.integers(0, len(MODES) - 1),
        ),
        st.tuples(st.just("commit"), st.integers(0, SLOTS - 1)),
        st.tuples(st.just("abort"), st.integers(0, SLOTS - 1)),
        st.tuples(st.just("close"), st.integers(0, SLOTS - 1)),
        st.tuples(st.just("detect"), st.just(0)),
    ),
    max_size=25,
)


def fresh_core() -> ServiceCore:
    clock = lambda: 0.0  # noqa: E731 - frozen virtual clock
    tokens = iter("tok{}".format(n) for n in range(1000))
    return ServiceCore(
        lease=30.0,
        clock=clock,
        wall=clock,
        journal=None,
        token_source=lambda: next(tokens),
    )


def dump(core: ServiceCore) -> str:
    return json.dumps(table_to_dict(core.manager.table), sort_keys=True)


def session_view(core: ServiceCore):
    return {
        sid: sorted(session.tids)
        for sid, session in core.sessions.items()
        if not session.closed
    }


def run_history(ops):
    """Execute a random history; return the live core and a map from
    journal length to the table dump at that exact record boundary."""
    core = fresh_core()
    core.journal = SessionJournal()
    sessions = [None] * SLOTS
    tids = [None] * SLOTS
    dumps = {0: dump(core)}
    explicit = itertools.count(1000)  # tids a batch frame names itself
    for op in ops:
        kind, slot = op[0], op[1]
        session = sessions[slot]
        if kind == "open":
            if session is None:
                sessions[slot] = core.open_session()
        elif session is None:
            continue
        elif kind == "lock":
            if tids[slot] is None:
                tids[slot] = core.begin_step(session)
            tid = tids[slot]
            if core.manager.was_aborted(tid):
                # A detector pass victimised it; the claim stays (the
                # journal has no release record) until close sweeps it.
                tids[slot] = None
            else:
                core.lock_step(session, tid, op[2], MODES[op[3]], wait=False)
        elif kind in ("commit", "abort"):
            tid = tids[slot]
            if (
                tid is not None
                and not core.manager.was_aborted(tid)
                and not core.manager.is_blocked(tid)
            ):
                core.finish_step(session, tid, kind == "abort")
                tids[slot] = None
        elif kind == "batch":
            tid = tids[slot]
            if tid is None or core.manager.was_aborted(tid):
                tid = next(explicit)
            neighbour = tids[(slot + 1) % SLOTS]
            if neighbour not in core.owners:
                neighbour = None  # nothing to steal
            frame = batch_frame(op[2], tid, neighbour)
            if not frame:
                continue
            results = core.batch_step(session, frame)
            ended = any(
                row["ok"] and row["op"] in ("commit", "abort")
                for row in results
            )
            tids[slot] = None if ended else tid
        elif kind == "close":
            core.close_session(session)
            sessions[slot] = None
            tids[slot] = None
        elif kind == "detect":
            core.detect_step()
        dumps[len(core.journal)] = dump(core)
    return core, dumps


def batch_frame(subs, tid, neighbour):
    """The wire sub-op dicts of one ``batch`` frame for ``tid``."""
    frame = []
    for sub in subs:
        if sub[0] == "lock":
            mode = MODES[sub[2]].name if sub[2] < len(MODES) else "?"
            frame.append({"op": "lock", "tid": tid, "rid": sub[1],
                          "mode": mode})
        elif sub[0] == "steal":
            if neighbour is not None:
                frame.append({"op": "lock", "tid": neighbour,
                              "rid": sub[1], "mode": "X"})
        else:
            frame.append({"op": sub[0], "tid": tid})
    return frame


def per_sub_op_stream(records):
    """The journal an older server — one record per sub-op, no
    ``batch`` kind — wrote for the same history."""
    names = {
        "begin": ("tid",),
        "lock": ("tid", "rid", "mode", "seq"),
        "finish": ("tid", "ab"),
    }
    flat = []
    for record in records:
        if record["kind"] != "batch":
            flat.append(record)
            continue
        for op in record["ops"]:
            old = {"kind": op[0], "sid": record["sid"]}
            old.update(zip(names[op[0]], op[1:]))
            flat.append(old)
    return flat


def recover_text(text: str) -> ServiceCore:
    replica = fresh_core()
    recover_into(replica, SessionJournal.from_text(text), now=0.0)
    return replica


@given(ops_strategy)
def test_every_prefix_recovers_consistently(ops):
    core, dumps = run_history(ops)
    lines = core.journal.to_text().splitlines()
    for cut in range(len(lines) + 1):
        text = "\n".join(lines[:cut]) + ("\n" if cut else "")
        replica = recover_text(text)
        assert not verify_table(replica.manager.table), (
            "cut at record {} broke a table invariant".format(cut)
        )
        if cut in dumps:
            assert dump(replica) == dumps[cut], (
                "cut at operation boundary {} did not rebuild the "
                "table byte-identically".format(cut)
            )
    # The full journal also restores the session set exactly.
    full = recover_text(core.journal.to_text())
    assert session_view(full) == session_view(core)


@given(ops_strategy)
def test_torn_tail_equals_truncation(ops):
    core, _ = run_history(ops)
    lines = core.journal.to_text().splitlines()
    for cut in range(1, len(lines) + 1):
        prefix = lines[:cut]
        torn = prefix[:-1] + [prefix[-1][: len(prefix[-1]) // 2]]
        corrupt = prefix[:-1] + ["deadbeef " + prefix[-1].split(" ", 1)[1]]
        clean = "\n".join(prefix[:-1]) + ("\n" if cut > 1 else "")
        want = dump(recover_text(clean))
        for variant in (torn, corrupt):
            journal = SessionJournal.from_text("\n".join(variant) + "\n")
            assert len(journal) == cut - 1
            assert journal.corrupt_tail == 1
            replica = fresh_core()
            recover_into(replica, journal, now=0.0)
            assert dump(replica) == want, (
                "torn line {} did not degrade to the durable "
                "prefix".format(cut)
            )


@given(ops_strategy)
def test_recovery_is_idempotent(ops):
    core, _ = run_history(ops)
    once = fresh_core()
    journal = SessionJournal.from_text(core.journal.to_text())
    recover_into(once, journal, now=0.0)
    twice = fresh_core()
    recover_into(twice, SessionJournal.from_records(journal.records()), now=0.0)
    assert dump(twice) == dump(once)
    assert session_view(twice) == session_view(once)


@given(ops_strategy)
def test_per_sub_op_journals_recover_to_the_same_bytes(ops):
    core, dumps = run_history(ops)
    records = core.journal.records()
    flat = per_sub_op_stream(records)
    assert not any(record["kind"] == "batch" for record in flat)
    old = fresh_core()
    # Through text, as a file written by the older server would arrive.
    recover_into(
        old,
        SessionJournal.from_text(
            SessionJournal.from_records(flat).to_text()
        ),
        now=0.0,
    )
    assert dump(old) == dumps[len(records)] == dump(core)
    assert session_view(old) == session_view(core)
