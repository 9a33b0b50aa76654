"""One scripted run of a ``ServiceCore`` that touches every kind of
observation the request path makes, and what an operator can read back
afterwards.

The script: Example 4.1 resolved by TDR-2, a TDR-1 deadlock, a ``batch``
frame with a blocked sub-op, a wait timeout followed by a resumed
``lock``, a lease expiry with a parked wait — and, on a second core, a
``nowait``-policy abort.  Everything runs on a scripted clock with
scripted tokens, so the read-back (:func:`observe`) repeats exactly
except where a wall clock or ``perf_counter`` is stamped; those values
are masked.

``tests/obs/golden_observables.json`` is :func:`golden` as the parent of
the bound-instruments change produced it (``python -m tests.obs.scenario
> tests/obs/golden_observables.json``); ``test_golden_observables.py``
holds every later version to it and ``tools/check_metric_catalog.py``
reads the registries of the same run.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Any, Dict, List

from repro.core.modes import LockMode
from repro.service import admin
from repro.service.core import ServiceCore

#: Series whose values are ``perf_counter`` intervals.
CLOCKED = (
    "repro_detector_pass_seconds",
    "repro_detector_last_pass_seconds",
    "repro_shard_snapshot_seconds",
)
MASK = "<clock>"


class Clock:
    """The scripted clock: moves only when the script says so."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_core(shards: int, policy: str, clock: Clock) -> ServiceCore:
    return ServiceCore(
        shards=shards,
        policy=policy,
        lease=5.0,
        clock=clock,
        wall=clock,
        token_source=itertools.count(1).__next__,
    )


def _lock(core, session, tid, rid, mode, wait=True):
    status, _, parked = core.lock_step(
        session, tid, rid, getattr(LockMode, mode), wait=wait
    )
    core.pump()
    return status, parked


def _drain(core, session, tids) -> None:
    """End ``tids``: victims abort, the rest commit as they become
    runnable, lowest tid first."""
    left = sorted(tids)
    while left:
        for tid in left:
            if core.manager.was_aborted(tid) or not core.manager.is_blocked(tid):
                core.finish_step(session, tid, core.manager.was_aborted(tid))
                core.pump()
                left.remove(tid)
                break
        else:
            raise AssertionError("scenario stuck on {}".format(left))


def run_main(core: ServiceCore, clock: Clock) -> None:
    session = core.open_session()
    for tid in range(1, 10):
        core.begin_step(session, tid)
    # Example 4.1 (the request order of tests/service/test_admin.py).
    for tid, rid, mode in (
        (7, "R2", "IS"), (1, "R1", "IX"), (2, "R1", "IS"), (3, "R1", "IX"),
        (4, "R1", "IS"), (1, "R1", "S"), (2, "R1", "S"), (5, "R1", "IX"),
        (6, "R1", "S"), (7, "R1", "IX"), (8, "R2", "X"), (9, "R2", "IX"),
        (3, "R2", "S"), (4, "R2", "X"),
    ):
        _lock(core, session, tid, rid, mode)
    clock.now += 0.02
    result = core.detect_step()
    core.pump()
    assert result.abort_free and result.repositions, "TDR-2 expected"
    _drain(core, session, range(1, 10))

    # A two-transaction embrace: TDR-1 aborts one of them.
    for tid in (11, 12):
        core.begin_step(session, tid)
    _lock(core, session, 11, "R10", "S")
    _lock(core, session, 12, "R11", "S")
    _lock(core, session, 11, "R11", "X")
    _lock(core, session, 12, "R10", "X")
    clock.now += 0.02
    result = core.detect_step()
    core.pump()
    assert len(result.aborted) == 1, "TDR-1 expected"
    _drain(core, session, (11, 12))

    # A batch frame whose second lock blocks; that sub-op still carries
    # the retired trace context, which the service ignores.
    core.begin_step(session, 21)
    _lock(core, session, 21, "R20", "X")
    results = core.batch_step(session, [
        {"op": "begin", "tid": 22},
        {"op": "lock", "tid": 22, "rid": "R21", "mode": "S"},
        {"op": "lock", "tid": 22, "rid": "R20", "mode": "S",
         "trace": "trace-0022", "span": "client:22"},
    ])
    core.pump()
    assert [row.get("status") for row in results] == [
        None, "granted", "blocked"
    ]
    clock.now += 0.003
    _drain(core, session, (21, 22))

    # A wait that times out client-side, then the re-sent lock.
    for tid in (31, 32):
        core.begin_step(session, tid)
    _lock(core, session, 31, "R30", "X")
    status, parked = _lock(core, session, 32, "R30", "X")
    assert status == "parked"
    clock.now += 0.25
    assert core.cancel_wait(32, parked) == "timeout"
    status, parked = _lock(core, session, 32, "R30", "X")
    assert status == "parked"
    clock.now += 0.04
    _drain(core, session, (31, 32))

    # A short-lease session expires while its lock request is parked.
    short = core.open_session(lease=0.5)
    core.begin_step(session, 41)
    core.begin_step(short, 42)
    _lock(core, session, 41, "R40", "X")
    _lock(core, short, 42, "R41", "S")
    status, parked = _lock(core, short, 42, "R40", "S")
    assert status == "parked"
    clock.now += 1.0
    core.touch_session(session)
    assert [s.sid for s in core.expire_sessions()] == [short.sid]
    core.pump()
    assert parked.status == "aborted"
    _drain(core, session, (41,))
    assert len(core.manager.table) == 0 and not core.owners


def run_nowait(core: ServiceCore, clock: Clock) -> None:
    session = core.open_session()
    for tid in (1, 2):
        core.begin_step(session, tid)
    _lock(core, session, 1, "R1", "X")
    _lock(core, session, 2, "R9", "S")
    # Holding R9, waiting at R1: out of resource order, so no wait.
    status, _ = _lock(core, session, 2, "R1", "X")
    assert status == "aborted", "nowait aborts the out-of-order wait"
    clock.now += 0.01
    _drain(core, session, (1, 2))


def run(shards: int) -> Dict[str, ServiceCore]:
    """Both cores after their scripts."""
    clock = Clock()
    main = make_core(shards, "periodic", clock)
    run_main(main, clock)
    nowait = make_core(shards, "nowait", clock)
    run_nowait(nowait, clock)
    return {"main": main, "nowait": nowait}


# -- read-back -----------------------------------------------------------------


def _mask_snapshot(snapshot: Dict[str, List[dict]]) -> Dict[str, List[dict]]:
    for entry in snapshot["gauges"]:
        if entry["name"] in CLOCKED:
            entry["value"] = MASK
    for entry in snapshot["histograms"]:
        if entry["name"] in CLOCKED:
            for key in ("counts", "sum", "min", "max", "p50", "p95", "p99"):
                entry[key] = MASK
    return snapshot


_CLOCKED_SAMPLE = re.compile(
    r"^({})(_bucket|_sum)?(\{{.*\}})? \S+$".format("|".join(CLOCKED))
)


def mask_exposition(text: str) -> str:
    lines = []
    for line in text.splitlines():
        match = _CLOCKED_SAMPLE.match(line)
        if match and 'le="+Inf"' not in line:
            line = line.rsplit(" ", 1)[0] + " " + MASK
        lines.append(line)
    return "\n".join(lines)


def observe(core: ServiceCore) -> Dict[str, Any]:
    """Everything an operator can read back from ``core``, clocks
    masked, as plain JSON data."""
    registry = core.telemetry.registry
    spans = admin.spans_payload(core, annotations=True)
    for span in spans["spans"]:
        for event in span["events"]:
            event["wall"] = MASK
    observed = {
        "snapshot": _mask_snapshot(registry.snapshot()),
        "render": mask_exposition(registry.render()),
        "stats": core.stats_payload(),
        "spans": spans,
        "log": admin.log_payload(core.manager, limit=0),
    }
    return json.loads(json.dumps(observed))


def golden() -> Dict[str, Any]:
    return {
        "shards{}".format(shards): {
            name: observe(core) for name, core in run(shards).items()
        }
        for shards in (1, 4)
    }


if __name__ == "__main__":
    print(json.dumps(golden(), sort_keys=True))
