"""Fast-lane equivalence: the optimized paths pinned to their oracles.

Three families, one per hot-path fast lane:

* **Bitmask algebra ⟷ matrices.**  ``COMPAT_MASKS``/``CONFLICT_MASKS``/
  ``SUP_OF_MASK`` are compile-time projections of the paper's Comp and
  Conv matrices; every answer the integer path gives must equal the
  dict-lookup path on the same inputs.
* **Memoized summaries ⟷ from-scratch rescan.**  Whatever state real
  scheduler operations reach, the incrementally-maintained per-mode
  counts, group masks and AV-prefix boundary must equal a rescan — and
  ``conversion_compatible`` must equal the reference pairwise check.
* **Batch ⟷ sequential.**  A ``batch`` frame's per-op results and the
  resulting lock table must be byte-identical to issuing the same ops
  one frame at a time.
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import (
    ALL_MODES,
    COMPATIBILITY,
    CONVERSION,
    MODE_COUNT,
    REQUESTABLE_MODES,
    SUP_OF_MASK,
    LockMode,
    compatible,
    convert,
    mask_compatible,
    mask_of,
    modes_in_mask,
    supremum,
    total_mode,
)
from repro.core.requests import HolderEntry, QueueEntry
from repro.core.verify import verify_table
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.service.core import ServiceCore

MODES = list(REQUESTABLE_MODES)

mode_st = st.sampled_from(list(ALL_MODES))
mode_set_st = st.lists(mode_st, max_size=6)


# -- bitmask algebra vs the matrices ---------------------------------------


class TestMaskAlgebra:
    def test_compatible_equals_matrix_everywhere(self):
        for a in ALL_MODES:
            for b in ALL_MODES:
                assert compatible(a, b) == COMPATIBILITY[(a, b)]
                assert convert(a, b) is CONVERSION[(a, b)]

    def test_sup_of_mask_equals_supremum_everywhere(self):
        for mask in range(1 << MODE_COUNT):
            assert SUP_OF_MASK[mask] is supremum(modes_in_mask(mask))

    @given(modes=mode_set_st, probe=mode_st)
    def test_mask_compatible_equals_pairwise_matrix(self, modes, probe):
        assert mask_compatible(mask_of(modes), probe) == all(
            COMPATIBILITY[(held, probe)] for held in modes
        )

    @given(
        entries=st.lists(st.tuples(mode_st, mode_st), max_size=6)
    )
    def test_total_mode_equals_sup_of_union_mask(self, entries):
        flat = [mode for pair in entries for mode in pair]
        assert total_mode(entries) is SUP_OF_MASK[mask_of(flat)]


# -- cached summaries vs rescans on reachable states -----------------------


def apply_ops(ops: List[Tuple[int, int, int, int]]) -> LockTable:
    """Random-but-reachable states, built through real scheduler ops
    (kind 0-3 request, kind 4 finish; blocked requesters are skipped as
    the sequential model demands)."""
    table = LockTable()
    for kind, tid, rid_index, mode_index in ops:
        tid = tid + 1
        if kind >= 4:
            scheduler.release_all(table, tid)
            continue
        if table.is_blocked(tid):
            continue
        scheduler.request(
            table,
            tid,
            "R{}".format(rid_index),
            MODES[mode_index % len(MODES)],
        )
    return table


ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=4),
    ),
    max_size=60,
)


def reference_conversion_compatible(state, holder, wanted) -> bool:
    """The pre-mask check: scan every *other* holder pairwise."""
    return all(
        COMPATIBILITY[(other.granted, wanted)]
        for other in state.holders
        if other is not holder
    )


class TestSummaryCaches:
    @settings(max_examples=120)
    @given(ops=ops_strategy)
    def test_summaries_match_rescan(self, ops):
        table = apply_ops(ops)
        # verify_table cross-checks every cached summary (counts,
        # masks, AV boundary) against a from-scratch rescan.
        assert verify_table(table) == []

    @settings(max_examples=120)
    @given(ops=ops_strategy)
    def test_av_prefix_matches_scan(self, ops):
        for state in apply_ops(ops).resources():
            boundary = 0
            for entry in state.queue:
                if not COMPATIBILITY[(state.total, entry.blocked)]:
                    break
                boundary += 1
            assert state.av_prefix_length() == boundary

    @settings(max_examples=120)
    @given(ops=ops_strategy, probe=st.sampled_from(MODES))
    def test_conversion_compatible_matches_pairwise_scan(self, ops, probe):
        for state in apply_ops(ops).resources():
            for holder in state.holders:
                assert state.conversion_compatible(
                    holder, probe
                ) == reference_conversion_compatible(state, holder, probe)

    def test_verify_catches_poisoned_caches(self):
        # The oracle has teeth: corrupt each cached summary directly
        # and the matching violation fires.  (Two compatible holders, so
        # the on-demand count lists exist, and one queued X.)
        table = apply_ops([(0, 0, 0, 0), (0, 1, 0, 1), (0, 2, 0, 4)])
        state = next(iter(table.resources()))
        state._granted_mask ^= 1 << LockMode.X
        rules = {v.rule for v in verify_table(table)}
        assert "cache-granted-mask" in rules
        state.recompute_total()
        assert verify_table(table) == []
        state._granted_counts[LockMode.S] += 1
        rules = {v.rule for v in verify_table(table)}
        assert "cache-granted-counts" in rules


class TestOnDemandSummaries:
    """The count lists exist only while a resource has two or more
    holders and the queue list only while somebody waits; every
    transition that allocates or frees one is taken here through the
    scheduler, with ``verify_table`` after every step."""

    S, X, IS, IX = LockMode.S, LockMode.X, LockMode.IS, LockMode.IX

    @staticmethod
    def step(table, call, *args):
        result = call(table, *args)
        assert verify_table(table) == []
        return result

    @staticmethod
    def shape(state):
        """(count lists allocated, queue list allocated)."""
        assert (state._granted_counts is None) == (
            state._blocked_counts is None
        )
        return state._granted_counts is not None, isinstance(state.queue, list)

    def test_one_two_one_holders_of_one_mode(self):
        table = LockTable()
        self.step(table, scheduler.request, 1, "R", self.S)
        state = table.existing("R")
        assert self.shape(state) == (False, False)
        self.step(table, scheduler.request, 2, "R", self.S)
        assert self.shape(state) == (True, False)
        assert state.summary_snapshot()["granted_counts"][self.S] == 2
        self.step(table, scheduler.release_all, 1)
        assert self.shape(state) == (False, False)
        assert state.summary_snapshot()["granted_counts"][self.S] == 1
        assert state.total is self.S
        self.step(table, scheduler.request, 3, "R", self.S)
        self.step(table, scheduler.request, 4, "R", self.IS)
        self.step(table, scheduler.release_all, 3)
        assert self.shape(state) == (True, False)  # 3 -> 2 keeps counting
        self.step(table, scheduler.release_all, 2)
        self.step(table, scheduler.release_all, 4)
        assert len(table) == 0

    def test_first_waiter_in_last_waiter_out(self):
        table = LockTable()
        self.step(table, scheduler.request, 1, "R", self.X)
        state = table.existing("R")
        assert not self.step(table, scheduler.request, 2, "R", self.S).granted
        assert self.shape(state) == (False, True)
        assert not self.step(table, scheduler.request, 3, "R", self.X).granted
        # One waiter aborts from the back, the other is granted by the
        # sweep: the list goes with the last of them, either way.
        self.step(table, scheduler.release_all, 3)
        assert self.shape(state) == (False, True)
        grants = self.step(table, scheduler.release_all, 1)
        assert [event.tid for event in grants] == [2]
        assert self.shape(state) == (False, False)
        assert not self.step(table, scheduler.request, 4, "R", self.X).granted
        self.step(table, scheduler.release_all, 4)  # front waiter aborts
        assert self.shape(state) == (False, False)
        assert not state.queue and compatible(state.total, self.S)
        assert not compatible(state.total, self.X)

    def test_conversion_blocked_then_granted(self):
        table = LockTable()
        self.step(table, scheduler.request, 1, "R", self.S)
        state = table.existing("R")
        # A sole holder converts on the spot, with no count list at all.
        assert self.step(table, scheduler.request, 1, "R", self.IX).granted
        assert state.total is LockMode.SIX
        assert self.shape(state) == (False, False)
        self.step(table, scheduler.request, 2, "R", self.IS)
        blocked = self.step(table, scheduler.request, 2, "R", self.S)
        assert not blocked.granted and blocked.conversion
        assert state.summary_snapshot()["blocked_counts"][self.S] == 1
        grants = self.step(table, scheduler.release_all, 1)
        assert [(event.tid, event.mode) for event in grants] == [(2, self.S)]
        assert self.shape(state) == (False, False)
        assert state.summary_snapshot()["blocked_mask"] == 0
        assert state.total is self.S

    def test_tdr2_reposition(self):
        table = LockTable()
        self.step(table, scheduler.request, 1, "R", self.IS)
        for tid, mode in ((2, self.X), (3, self.IS), (4, self.IX)):
            self.step(table, scheduler.request, tid, "R", mode)
        state = table.existing("R")
        assert state.av_prefix_length() == 0
        self.step(table, scheduler.reposition_queue, "R", [3, 4], [2])
        assert [entry.tid for entry in state.queue] == [3, 4, 2]
        assert state.av_prefix_length() == 2
        assert verify_table(table) == []
        grants = self.step(table, scheduler.sweep, "R")
        assert [event.tid for event in grants] == [3, 4]
        assert self.shape(state) == (True, True)

    def test_recompute_total_after_direct_list_surgery(self):
        table = LockTable()
        state = table.resource("R")
        state.holders.append(HolderEntry(1, self.S))
        table.note_holder(1, "R")
        assert state.recompute_total() is self.S
        assert self.shape(state) == (False, False)
        assert verify_table(table) == []
        state.holders.insert(0, HolderEntry(2, self.IS, self.S))
        table.note_holder(2, "R")
        table.note_blocked(2, "R", in_queue=False)
        assert state.queue == ()  # nobody waits: nothing to append to
        state.queue = [QueueEntry(3, self.X)]
        table.note_blocked(3, "R", in_queue=True)
        assert [rule.rule for rule in verify_table(table)] != []
        assert state.recompute_total() is self.S
        assert self.shape(state) == (True, True)
        assert verify_table(table) == []
        del state.holders[0]
        table.forget_holder(2, "R")
        table.forget_blocked(2)
        state.recompute_total()
        assert self.shape(state) == (False, True)
        assert verify_table(table) == []

    def test_copy_of_a_state_in_each_shape(self):
        table = LockTable()
        self.step(table, scheduler.request, 1, "sole", self.X)
        for tid in (1, 2):
            self.step(table, scheduler.request, tid, "shared", self.S)
        self.step(table, scheduler.request, 1, "queued", self.X)
        self.step(table, scheduler.request, 3, "queued", self.S)
        self.step(table, scheduler.request, 2, "shared", self.X)  # blocks
        shapes = set()
        for state in table.resources():
            clone = state.copy()
            assert clone is not state and str(clone) == str(state)
            assert list(clone.queue) == list(state.queue)
            assert clone.summary_snapshot() == state.summary_snapshot()
            assert self.shape(clone) == self.shape(state)
            assert all(
                mine is not theirs and mine == theirs
                for mine, theirs in zip(clone.holders, state.holders)
            )
            shapes.add(self.shape(state))
            # A copy shares nothing: surgery on it leaves the table whole.
            clone.holders.clear()
            clone.enqueue(QueueEntry(9, self.X))
            assert verify_table(table) == []
        assert shapes == {(False, False), (True, False), (False, True)}


# -- batch vs sequential through the service core --------------------------


def batch_ops_strategy():
    lock = st.tuples(
        st.just("lock"),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
    )
    finish = st.tuples(
        st.sampled_from(["commit", "abort"]),
        st.integers(min_value=1, max_value=4),
        st.just(0),
        st.just(0),
    )
    return st.lists(
        st.one_of(lock, lock, lock, finish), min_size=1, max_size=12
    )


#: ``ServiceCore`` flags: batch and sequential must agree on each.
core_configs = st.fixed_dictionaries({
    "shards": st.sampled_from((1, 4)),
    "policy": st.sampled_from(("periodic", "nowait")),
})


def to_frames(ops) -> List[dict]:
    frames = []
    for name, tid, rid_index, mode_index in ops:
        if name == "lock":
            frames.append({
                "op": "lock",
                "tid": tid,
                "rid": "R{}".format(rid_index),
                "mode": MODES[mode_index % len(MODES)].name,
            })
        else:
            frames.append({"op": name, "tid": tid})
    return frames


def run_sequential(frames, config) -> Tuple[List[dict], str]:
    """Reference: each frame applied as its own single-op request."""
    core = ServiceCore(**config)
    session = core.open_session()
    results = [core.batch_step(session, [frame])[0] for frame in frames]
    return results, str(core.manager.table)


def run_batched(frames, config) -> Tuple[List[dict], str]:
    core = ServiceCore(**config)
    session = core.open_session()
    results = core.batch_step(session, frames)
    return results, str(core.manager.table)


class TestBatchEquivalence:
    @settings(max_examples=120)
    @given(config=core_configs, ops=batch_ops_strategy())
    def test_batch_equals_sequential(self, config, ops):
        frames = to_frames(ops)
        sequential, seq_table = run_sequential(frames, config)
        batched, batch_table = run_batched(frames, config)
        assert batched == sequential
        assert batch_table == seq_table

    @settings(max_examples=60)
    @given(config=core_configs, ops=batch_ops_strategy())
    def test_batch_counters_account_every_op(self, config, ops):
        frames = to_frames(ops)
        core = ServiceCore(**config)
        session = core.open_session()
        core.batch_step(session, frames)
        assert core.stats.batches == 1
        assert core.stats.batched_ops == len(frames)
