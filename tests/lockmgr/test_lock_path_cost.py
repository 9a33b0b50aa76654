"""What an uncontended lock may cost — counted, never timed.

``tools/lock_path_cost.py`` takes the figures (Python-level calls per
core step and per planted-round detector pass, gc-tracked objects per
held lock, bytes per ballast reader);
this holds them to the tool's ratchet in tier-1, and holds the release
path to what the counts assume: eight sole-holder locks go without a
sweep and leave nothing behind.
"""

import json
import subprocess
import sys
from unittest import mock

import pytest

from repro.core.modes import LockMode
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable

from ..test_tools import load_tool


#: Loads the tool in a child interpreter and prints its figures as JSON.
MEASURE = (
    "import importlib.util, json, sys\n"
    "spec = importlib.util.spec_from_file_location("
    "'lock_path_cost', 'tools/lock_path_cost.py')\n"
    "tool = importlib.util.module_from_spec(spec)\n"
    "spec.loader.exec_module(tool)\n"
    "sys.path[:0] = [tool.SRC, tool.REPO_ROOT]\n"
    "print(json.dumps(tool.measure()))\n"
)


@pytest.fixture(scope="module")
def figures():
    # Measured in a child interpreter: the objects-per-lock figures
    # count the whole process's gc-tracked objects, so a thread another
    # test left running here could add to them.
    child = subprocess.run(
        [sys.executable, "-c", MEASURE],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_the_lock_path_is_within_its_ratchet(figures):
    tool = load_tool("lock_path_cost")
    assert set(tool.CEILINGS) <= set(figures)
    assert tool.over_ceiling(figures) == [], {
        name: (figures[name], ceiling)
        for name, ceiling in tool.CEILINGS.items()
    }


def test_telemetry_adds_at_most_three_calls_to_a_granted_lock(figures):
    """Observing a granted lock records its event at C cost and the
    pump folds it: the telemetry may add three Python calls to
    ``lock_step`` + ``pump``, not the nine a chain of per-event hooks
    made."""
    on = figures["lock_step+pump py (telemetry on)"]
    off = figures["lock_step+pump py (telemetry off)"]
    assert on - off <= 3, (on, off)


def test_a_detector_pass_ratchet_is_never_raised():
    """One ``detect()`` over a planted round (38 transactions, 8
    cycles) touches each element of the waiting structure once: the
    ceilings stay at what that costs, well under the 3242 / 2080 calls
    a pass made while Step 2 called an observer hook per edge and a
    routed pass ran Step 3 twice.  The cluster pass (``LocalCluster(2)``
    over the JSON codec) read 2706 while snapshots shipped held-rid
    summaries, 2658 without.  The routed passes read 1340 (shards=4)
    and 2658 while their merge rebuilt an indexed lock table from the
    copies; Steps 1-2 read them by rid only.  They read 997 / 654 /
    2517 while every read of a resource's queue was a property call."""
    ceilings = load_tool("lock_path_cost").CEILINGS
    assert ceilings["detect planted round py (shards=4)"] <= 904
    assert ceilings["detect planted round py (shards=1)"] <= 582
    assert ceilings["detect planted round py (LocalCluster(2))"] <= 2473


def test_a_lock_or_finish_ratchet_is_never_raised():
    """A granted request costs the Section-3 test and its bookkeeping:
    one routing decision, the admit test read inline, one event built
    and logged inline.  A release drops every resource the transaction
    held alone in one loop.  The ceilings stay there, well under the
    13 / 10 calls of a grant through ``_request_new``, ``admits`` and
    ``_publish`` and the 43 / 36 of eight releases through a per-rid
    ``_evict`` -> ``existing`` -> ``drop`` chain."""
    ceilings = load_tool("lock_path_cost").CEILINGS
    pinned = {
        "lock_step+pump py (telemetry on)": 13,
        "lock_step+pump py (telemetry off)": 12,
        "finish_step+pump x8 py (telemetry on)": 16,
        "finish_step+pump x8 py (telemetry off)": 14,
        "ShardedLockCore.lock py": 9,
        "ShardedLockCore.lock py (shards=4)": 10,
        "scheduler.request py": 8,
        "ShardedLockCore.finish x8 py": 9,
        "scheduler.release_all x8 py": 4,
    }
    raised = {
        name: ceilings[name]
        for name, bound in pinned.items()
        if ceilings[name] > bound
    }
    assert raised == {}, pinned


def test_a_frame_ratchet_is_never_raised():
    """A granted ``lock`` frame costs its core step, one split and one
    encode on each end: the server's frame through ``data_received``
    and the settle, and the client's ``acquire`` from its call through
    its reply, stay well under the 51 / 24 calls of a frame split
    through four functions, served through ``_on_frame`` -> ``_dispatch``
    -> a handler and answered through ``ok()`` and a codec wrapper, and
    of a client awaiting a request coroutine."""
    ceilings = load_tool("lock_path_cost").CEILINGS
    assert ceilings["server lock frame py"] <= 30
    assert ceilings["client acquire round trip py"] <= 16


def test_a_batch_transaction_ratchet_is_never_raised():
    """The batch lane's transaction — a begin + eight-lock ``batch``
    frame and its ``commit`` through a journaled server — runs each lock
    sub-op's field checks inline, one ``lock_step`` per sub-op, its
    journal entry straight onto the frame's record and a result of
    ``op``/``ok``/``status``: well under the 233 calls it made through
    ``_batch_one``, the field helpers and ``_journal_op`` with an event
    dict per result.  The client's ``batch`` round trip reads the
    trimmed reply."""
    ceilings = load_tool("lock_path_cost").CEILINGS
    assert ceilings["server batch txn py"] <= 181
    assert ceilings["client batch round trip py"] <= 27


def test_the_multi_shard_wait_lookups_are_never_raised():
    """Where a transaction waits is one read of the core's wait index on
    a multi-shard core: ``is_blocked`` and the Axiom-1 check of a
    request on a second shard made 7 and 18 calls while they took the
    transaction-side lock and asked every shard the transaction had
    touched."""
    ceilings = load_tool("lock_path_cost").CEILINGS
    assert ceilings["ShardedLockCore.is_blocked py (shards=4)"] <= 3
    assert ceilings["ShardedLockCore.lock py (shards=4, second shard)"] <= 10


def test_releasing_eight_sole_holder_locks_sweeps_nothing_and_leaves_nothing():
    table = LockTable()
    for k in range(8):
        assert scheduler.request(table, 7, "r{}".format(k), LockMode.S).granted
    assert len(table) == 8 and len(table.held_by(7)) == 8
    with mock.patch.object(scheduler, "sweep") as sweep:
        assert scheduler.release_all(table, 7) == []
    assert sweep.call_count == 0
    assert len(table) == 0
    assert table.held_by(7) == set()
    assert table._seq == {} and table._held == {} and table._blocked_at == {}
    # A shared lock still takes the whole path: T2 waits behind T1 and T3.
    for tid in (1, 3):
        scheduler.request(table, tid, "shared", LockMode.S)
    assert not scheduler.request(table, 2, "shared", LockMode.X).granted
    assert scheduler.release_all(table, 1) == []
    assert [event.tid for event in scheduler.release_all(table, 3)] == [2]
    assert scheduler.release_all(table, 2) == [] and len(table) == 0
