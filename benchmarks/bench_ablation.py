"""Ablation experiments X5, A1, A2 — the design choices DESIGN.md calls
out, each switched off and measured.

X5 — total mode vs group mode: the total mode folds blocked conversion
     targets in, so one compatibility lookup decides queue admission;
     a group-mode scheduler must rescan the holder list (O(holders))
     and, used naively, admits requests that conflict with a pending
     upgrade.
A1 — UPR: the ordering makes Theorem 3.1 true, which lets the release
     sweep stop at the first non-grantable conversion.  Without UPR,
     early-stop loses grants (liveness) and the safe alternative scans
     every blocked conversion.
A2 — TDR-2 disabled: every deadlock then costs an abort; measure the
     abort and wasted-work penalty on identical workloads.
"""

import time

from repro.analysis.report import render_table
from repro.core.modes import LockMode, compatible, group_mode
from repro.core.notation import parse_resource
from repro.core.requests import HolderEntry, ResourceState
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.policy import PeriodicPolicy
from repro.sim.runner import aggregate, compare_strategies
from repro.sim.workload import WorkloadSpec


def _holder_list(size: int) -> ResourceState:
    state = ResourceState(rid="R")
    for tid in range(1, size + 1):
        state.holders.append(HolderEntry(tid, LockMode.IS))
    state.holders[-1].blocked = LockMode.SIX  # one pending upgrade (last,
    # so a holder scan cannot short-circuit before seeing it)
    state.recompute_total()
    return state


def test_x5_total_vs_group_mode(benchmark, record_result):
    """O(1) total-mode admission check vs O(holders) scan, plus the
    correctness gap of the naive group-mode check."""
    state = _holder_list(64)
    requested = LockMode.IX  # conflicts only with the trailing upgrade

    def total_mode_check():
        return compatible(state.total, requested)

    def group_scan_check():
        # A group-mode scheduler has no blocked-mode summary: it scans
        # every holder's granted AND blocked mode.
        return all(
            compatible(h.granted, requested)
            and compatible(h.blocked, requested)
            for h in state.holders
        )

    assert total_mode_check() == group_scan_check()

    benchmark(total_mode_check)
    rows = []
    for size in (4, 16, 64, 256):
        big = _holder_list(size)

        def scan():
            return all(
                compatible(h.granted, requested)
                and compatible(h.blocked, requested)
                for h in big.holders
            )

        start = time.perf_counter()
        for _ in range(2000):
            scan()
        scan_time = (time.perf_counter() - start) / 2000

        start = time.perf_counter()
        for _ in range(2000):
            compatible(big.total, requested)
        lookup_time = (time.perf_counter() - start) / 2000
        rows.append(
            [size, round(lookup_time * 1e9), round(scan_time * 1e9)]
        )

    # The naive group-mode-only check is also WRONG: group mode ignores
    # the pending SIX upgrade, admitting a conflicting IX.
    naive_group = group_mode(h.granted for h in state.holders)
    assert compatible(naive_group, requested)  # would wrongly admit
    assert not compatible(state.total, requested)  # total mode refuses

    record_result(
        "X5_total_vs_group",
        render_table(
            ["holders", "total-mode check (ns)", "holder scan (ns)"],
            rows,
            title="X5 — queue-admission check cost",
        )
        + "\ncorrectness: group mode (IS) would admit IX past a pending "
        "SIX upgrade; the total mode (SIX) refuses it.",
    )


def test_a1_upr_enables_early_stop(benchmark, record_result):
    """Without UPR ordering, sweep early-stop loses a grant; the safe
    non-UPR sweep checks every blocked conversion."""
    # Arrival-order holder list: T2's X-upgrade first, T3's IX-upgrade
    # second, T1 holds S.  After T1 releases, T3 is grantable, T2 not.
    def build_with_upr() -> LockTable:
        table = LockTable()
        scheduler.request(table, 1, "R", LockMode.S)
        scheduler.request(table, 2, "R", LockMode.IS)
        scheduler.request(table, 3, "R", LockMode.IS)
        scheduler.request(table, 2, "R", LockMode.X)  # blocked, bm=X
        scheduler.request(table, 3, "R", LockMode.IX)  # blocked, bm=IX
        return table

    table = build_with_upr()
    # UPR-2 placed T3 before T2.
    assert [h.tid for h in table.existing("R").holders] == [3, 2, 1]
    grants = scheduler.release_all(table, 1)
    assert [g.tid for g in grants] == [3]  # early stop, nothing missed

    # Ablated order (arrival order, no UPR): early-stop misses T3.
    state = parse_resource("R(X): Holder((T2, IS, X) (T3, IS, IX)) Queue()")
    checks_early_stop = 0
    granted_early_stop = []
    for holder in state.holders:
        if not holder.is_blocked:
            break
        checks_early_stop += 1
        if scheduler.conversion_grantable(state, holder):
            granted_early_stop.append(holder.tid)
        else:
            break  # early stop on arrival order: WRONG

    checks_full = 0
    granted_full = []
    for holder in state.holders:
        if not holder.is_blocked:
            break
        checks_full += 1
        if scheduler.conversion_grantable(state, holder):
            granted_full.append(holder.tid)

    assert granted_early_stop == []  # liveness lost without UPR
    assert granted_full == [3]  # safe, but scans every conversion

    benchmark(lambda: scheduler.release_all(build_with_upr(), 1))
    record_result(
        "A1_upr_ablation",
        "A1 — UPR ablation on the S/IS/IS upgrade scenario\n"
        "with UPR (holder order [T3, T2]):        sweep grants [T3] after "
        "1 grantability check, then stops (Theorem 3.1)\n"
        "arrival order + early stop:              grants [] — a grantable "
        "conversion is missed (liveness loss)\n"
        "arrival order + full scan ({} checks):    grants [T3] — correct "
        "but O(blocked conversions) per sweep".format(checks_full),
    )


def test_a2_tdr2_disabled(benchmark, record_result):
    spec = WorkloadSpec(
        resources=24,
        hotspot_resources=6,
        min_size=2,
        max_size=6,
        write_fraction=0.3,
        upgrade_fraction=0.4,
    )

    def run():
        results = compare_strategies(
            spec,
            [
                lambda: PeriodicPolicy(allow_tdr2=True),
                lambda: PeriodicPolicy(allow_tdr2=False),
            ],
            duration=150.0,
            terminals=6,
            seeds=(1, 2, 3),
            period=5.0,
        )
        return aggregate(results)

    summary = benchmark.pedantic(run, rounds=1, iterations=1)
    with_tdr2 = summary["park-periodic"]
    without = summary["park-periodic-no-tdr2"]
    assert with_tdr2["abort_free"] > 0
    assert without["abort_free"] == 0
    rows = [
        [name, row["commits"], row["deadlock_aborts"], row["abort_free"],
         row["wasted_fraction"]]
        for name, row in summary.items()
    ]
    record_result(
        "A2_tdr2_ablation",
        render_table(
            ["variant", "commits", "deadlock aborts", "abort-free passes",
             "wasted fraction"],
            rows,
            title="A2 — TDR-2 disabled (abort-only resolution), 3 seeds",
        ),
    )
