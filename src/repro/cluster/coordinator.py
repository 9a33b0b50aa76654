"""The routed periodic detection-resolution pass.

The paper's periodic scheme never needs the request path and the
detector to share memory — the detector only needs snapshots that are
*consistent enough* for cycles, and cycles are stable until a
resolution acts.  The sharded manager exploits that split inside one
core; this module binds the one
:class:`~repro.lockmgr.detection_pass.DetectionPass` to a set of
separately owned worker cores that it reaches only through
wire-shaped payloads:

* **source** — every worker's ``snapshot`` payload: its slice of the
  *waiting structure* (rows of the resources somebody is blocked at,
  each with its cluster-wide first-lock number — the workers share one
  counter, see :class:`~repro.cluster.local.LocalCluster`; idle locks
  are not shipped), merged by :func:`merge_snapshots` into the order a
  single-process table fed the same request stream would have;
* **sink** — ``resolve`` plans to the owning workers, every item
  re-checked against the live state by :func:`apply_resolution_plan`
  (the *worker-side* half).  A victim is confirmed at the worker owning its
  blocked resource, then every other reachable worker is told to
  release what it holds for it — the coordinator cannot know where a
  victim's *idle* locks live, and a worker that never saw the
  transaction answers with a no-op.

The transport is abstract (``snapshot_all()`` / ``resolve(index,
plan)``): :class:`~repro.cluster.local.LocalCluster` binds it to
in-process cores, round-tripping every payload through a wire codec.
"""

from __future__ import annotations

import contextlib
import os
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.detection import DetectionResult
from ..core.serialize import state_from_dict
from ..core.victim import CostTable
from ..lockmgr.detection_pass import DetectionPass, PassInfo, WaitingCopy
from ..lockmgr.events import Granted, Repositioned
from ..lockmgr.partition import partition_of
from ..service.protocol import event_from_dict, event_to_dict


def worker_of(rid: str, workers: int) -> int:
    """Which worker owns ``rid`` — the shard router
    (:func:`~repro.lockmgr.partition.partition_of`), one level up."""
    return partition_of(rid, workers)


# -- worker side -----------------------------------------------------------


def apply_resolution_plan(core, plan: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one coordinator resolution plan against a worker core.

    ``core`` is a :class:`~repro.lockmgr.sharded.ShardedLockCore`;
    ``plan`` may carry four JSON-ready lists, applied in this order:

    * ``repositions`` — ``{"rid", "av", "st"}`` TDR-2 repositionings,
      re-validated against the live queue (``applied: false`` = stale);
    * ``victims`` — ``{"tid", "rid"}`` abort victims, confirmed still
      blocked at ``rid`` (``confirmed: false`` = stale);
    * ``releases`` — transaction ids whose locks this worker frees
      because another worker confirmed them as victims (a no-op for a
      transaction this worker never saw);
    * ``sweeps`` — resource ids to run the change-list sweep on after
      their repositioning.

    Returns one reply entry per item, with any resulting grant events
    as wire dicts.  The plan applies all or nothing: every item's shape
    is checked before the first one lands, and a malformed item raises
    ``KeyError`` / ``ValueError`` / ``TypeError`` with ``core``
    untouched.
    """
    # Parsed in full before anything is applied (and without helper
    # calls: this runs once per routed plan).
    lists = (
        plan.get("repositions") or [],
        plan.get("victims") or [],
        plan.get("releases") or [],
        plan.get("sweeps") or [],
    )
    if set(map(type, lists)) != {list}:
        raise TypeError("plan items must travel in lists")
    repositions, victims = [], []
    for item in lists[0]:
        repositions.append((
            str(item["rid"]),
            [int(tid) for tid in item.get("av", ())],
            [int(tid) for tid in item.get("st", ())],
        ))
    for item in lists[1]:
        tid, rid = int(item["tid"]), item.get("rid")
        if rid is not None and not isinstance(rid, str):
            raise TypeError("a victim's rid must be a string")
        victims.append((tid, rid))
    releases = list(map(int, lists[2]))
    sweeps = list(map(str, lists[3]))
    reply: Dict[str, Any] = {
        "repositions": [],
        "victims": [],
        "releases": [],
        "sweeps": [],
    }
    for rid, av, st in repositions:
        event = core.apply_reposition(rid, av, st)
        entry: Dict[str, Any] = {"rid": rid, "applied": event is not None}
        if event is not None:
            entry["delayed"] = list(event.delayed)
        reply["repositions"].append(entry)
    for tid, rid in victims:
        grants = core.abort_victim(tid, rid)
        reply["victims"].append(
            {
                "tid": tid,
                "confirmed": grants is not None,
                "grants": [event_to_dict(event) for event in grants or ()],
            }
        )
    for tid in releases:
        grants = core.release_victim(tid)
        reply["releases"].append(
            {
                "tid": tid,
                "grants": [event_to_dict(event) for event in grants],
            }
        )
    for rid in sweeps:
        grants = core.sweep_resource(rid)
        reply["sweeps"].append(
            {
                "rid": rid,
                "grants": [event_to_dict(event) for event in grants],
            }
        )
    return reply


# -- coordinator side ------------------------------------------------------


def merge_snapshots(
    payloads: List[Optional[Dict[str, Any]]],
) -> Tuple[WaitingCopy, List[int], List[float]]:
    """Merge worker ``snapshot`` payloads into one waiting structure.

    ``payloads`` is index-aligned with the workers; ``None`` marks a
    worker whose snapshot could not be fetched (its slice is simply
    absent — cycles wholly among reachable workers still resolve).
    Returns ``(merged states, unreachable worker indexes, per-worker
    snapshot seconds)``, the states a :class:`WaitingCopy` keyed by rid.
    Resources sort by their cluster-wide first-lock sequence number,
    which reproduces the iteration order of a single-process table fed
    the same request stream.
    """
    unreachable: List[int] = []
    seconds = [0.0] * len(payloads)
    entries: List[Tuple[Tuple[int, int], int, int, Dict[str, Any]]] = []
    for index, payload in enumerate(payloads):
        if payload is None:
            unreachable.append(index)
            continue
        seconds[index] = float(payload.get("seconds", 0.0))
        sequence = payload.get("sequence") or {}
        table = payload.get("table") or {}
        for position, entry in enumerate(table.get("resources", ())):
            raw = sequence.get(entry["rid"])
            key = (0, int(raw)) if raw is not None else (1, 0)
            entries.append((key, index, position, entry))
    entries.sort(key=lambda item: (item[0], item[1], item[2]))
    merged = WaitingCopy()
    for entry in entries:
        state = state_from_dict(entry[-1])
        merged[state.rid] = state
    return merged, unreachable, seconds


class _PlanBinding:
    """The pass's two ends over a worker fleet: ``snapshot`` payloads
    in, ``resolve`` plans out — each plan stamped with the pass's trace
    context so worker-side resolution spans parent to it."""

    guard = staticmethod(contextlib.nullcontext)

    def __init__(self, transport, workers: int) -> None:
        self.transport = transport
        self.parts = workers
        suffix = os.urandom(4).hex()
        self.info = PassInfo(
            parts=workers,
            trace="trace-" + suffix,
            span="coord:pass-" + suffix,
        )
        self._ctx = {"trace": self.info.trace, "span": self.info.span}

    def part_of(self, rid: str) -> int:
        return worker_of(rid, self.parts)

    def _resolve(self, index: int, key: str, items: list) -> List[dict]:
        """Send worker ``index`` one plan; its reply rows for ``key``."""
        reply = self.transport.resolve(index, {key: items, "ctx": self._ctx})
        return (reply or {}).get(key) or []

    def collect(self):
        info = self.info
        merged, info.unreachable_workers, info.snapshot_seconds = (
            merge_snapshots(self.transport.snapshot_all())
        )
        return merged, False

    def reposition(self, chosen) -> List[Optional[Repositioned]]:
        events: List[Optional[Repositioned]] = []
        for item in chosen:
            plan = {"rid": item.rid, "av": list(item.av), "st": list(item.st)}
            rows = self._resolve(
                self.part_of(item.rid), "repositions", [plan]
            )
            applied = rows and rows[0].get("applied")
            events.append(
                Repositioned(
                    item.rid,
                    tuple(int(t) for t in rows[0].get("delayed", item.st)),
                )
                if applied
                else None
            )
        return events

    def abort(self, tid: int, rid: str) -> Optional[List[Granted]]:
        """Confirm at the owner of the blocked resource, then have every
        other reachable worker release what it holds for the victim."""
        owner = self.part_of(rid)
        rows = self._resolve(owner, "victims", [{"tid": tid, "rid": rid}])
        if not (rows and rows[0].get("confirmed")):
            return None
        down = {owner, *self.info.unreachable_workers}
        for index in range(self.parts):
            if index not in down:
                rows += self._resolve(index, "releases", [tid])
        return _grants_of(rows)

    def sweep(self, rid: str) -> List[Granted]:
        return _grants_of(self._resolve(self.part_of(rid), "sweeps", [rid]))

    def finish(self, result) -> None:
        result.routing = self.info


def _grants_of(rows) -> List[Granted]:
    return [
        event_from_dict(event)
        for row in rows
        for event in row.get("grants", ())
    ]


def run_cluster_pass(
    transport,
    workers: int,
    costs: CostTable,
    incident_sink=None,
    epoch: Optional[int] = None,
    policy=None,
) -> DetectionResult:
    """One snapshot-merge-detect-resolve pass over the worker cores.

    ``transport`` provides the two rounds::

        snapshot_all() -> List[Optional[dict]]   # None = unreachable
        resolve(worker_index, plan) -> Optional[dict]

    Every pass mints a trace id and a coordinator pass-span ref; each
    plan carries them as ``plan["ctx"]``, so a plan names the pass
    that staged it.  With
    ``incident_sink`` (an :class:`~repro.obs.incidents.IncidentLog`) a
    resolving pass appends a ``repro.incident/1`` record stamped with
    ``policy`` (a bound :class:`~repro.policy.base.DetectionPolicy`,
    default periodic).
    """
    from ..policy import PeriodicPolicy

    started = perf_counter()
    binding = _PlanBinding(transport, workers)
    info = binding.info

    def stamp() -> Dict[str, Any]:
        return {
            "source": "cluster",
            "trace": info.trace,
            "span": info.span,
            "epoch": epoch,
            "workers": workers,
            "cross_worker_cycles": info.cross_part_cycles,
            "staleness": {
                "stale_victims": info.stale_victims,
                "stale_repositions": info.stale_repositions,
            },
            "unreachable_workers": info.unreachable_workers,
        }

    run = DetectionPass(
        binding,
        costs,
        policy if policy is not None else PeriodicPolicy(),
        incident_sink,
        stamp,
    )
    result = run.run()
    info.pass_seconds = perf_counter() - started
    run.record()
    return result
