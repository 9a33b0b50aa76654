"""Deadlock incident records: durable forensics for every resolved
cycle (``repro.incident/1``).

When a detector pass — the service's or the routed
snapshot-merge-resolve pass of :mod:`repro.cluster` — finds a cycle, the operator's questions
arrive later: *what* was the cycle, *which* TRRP candidates were on the
table, *why* did TDR pick that victim, and did the resolution actually
land or go stale?  The metrics registry only keeps counters; the span
ring only keeps lifecycles.  This module keeps the decision record:

Record schema (``repro.incident/1``)::

    {"schema":  "repro.incident/1",
     "id":      "inc-1a2b3c4d",
     "ts":      1754500000.0,            # unix seconds
     "kind":    "deadlock",              # optional; the only kind
     "source":  "service" | "cluster",
     "policy":  "periodic",              # detection policy (optional)
     "trace":   "trace-...",             # pass trace id (optional)
     "span":    "coord:7",               # pass span ref (optional)
     "epoch":   2,                       # restart epoch (optional)
     "workers": 2,                       # cluster passes only
     "table":   "R1(S): Holder(...)",    # merged snapshot render
     "cycles":  [{"cycle": [1, 2],
                  "edges": [{"tid": 1, "rid": "R2"}, ...],
                  "candidates": [{"kind": "abort", "tid": 2,
                                  "rid": "R1", "cost": 1.0}, ...],
                  "chosen": {...},       # one of the candidates
                  "decision": "tdr-1" | "tdr-2"}],
     "aborted": [2], "spared": [],       # per-item outcomes
     "repositions": [{"rid": "R1", "delayed": [3]}],
     "staleness": {"stale_victims": 0, "stale_repositions": 0},
     "cross_worker_cycles": 1,           # cluster passes only
     "stats":   {"transactions": 4, "edges_examined": 6, ...}}

:class:`IncidentLog` bounds the record stream both in memory (a ring)
and on disk (the JSON-lines file is compacted back to the newest
``capacity`` records once it doubles), so a deadlock storm cannot grow
the log without bound.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

__all__ = [
    "SCHEMA",
    "build_incident",
    "candidate_to_dict",
    "validate_incident",
    "validate_incident_file",
    "incident_to_dot",
    "render_incident",
    "load_incidents",
    "IncidentLog",
]

SCHEMA = "repro.incident/1"

_NUMBER = (int, float)


def _new_incident_id() -> str:
    return "inc-" + os.urandom(4).hex()


def candidate_to_dict(candidate) -> Dict[str, Any]:
    """One TRRP victim candidate as a JSON-ready dict (TDR-1 aborts and
    TDR-2 repositionings keep their distinguishing fields)."""
    if candidate is None:
        return {}
    record: Dict[str, Any] = {
        "kind": candidate.kind,
        "cost": float(candidate.cost),
    }
    if candidate.kind == "abort":
        record["tid"] = int(candidate.tid)
        if candidate.rid is not None:
            record["rid"] = str(candidate.rid)
    else:
        record["junction"] = int(candidate.junction)
        record["rid"] = str(candidate.rid)
        record["av"] = [int(tid) for tid in candidate.av]
        record["st"] = [int(tid) for tid in candidate.st]
    return record


def build_incident(
    result,
    source: str,
    table_text: Optional[str] = None,
    blocked_at: Optional[Dict[int, Optional[str]]] = None,
    trace: Optional[str] = None,
    span: Optional[str] = None,
    epoch: Optional[int] = None,
    workers: Optional[int] = None,
    timestamp: Optional[float] = None,
    policy: Optional[str] = None,
) -> Dict[str, Any]:
    """One ``repro.incident/1`` record from a detection result.

    ``result`` is a :class:`~repro.core.detection.DetectionResult` or
    :class:`~repro.cluster.coordinator.ClusterDetection` with at least
    one resolution; ``blocked_at`` maps each cycle transaction to the
    resource it was blocked at *in the pre-pass snapshot* (the cycle's
    W/H edges); ``table_text`` is the pre-pass merged table render.
    """
    cycles: List[Dict[str, Any]] = []
    for resolution in result.resolutions:
        chosen = candidate_to_dict(resolution.chosen)
        entry: Dict[str, Any] = {
            "cycle": [int(tid) for tid in resolution.cycle],
            "candidates": [
                candidate_to_dict(candidate)
                for candidate in resolution.candidates
            ],
            "chosen": chosen,
            "decision": (
                "tdr-2" if chosen.get("kind") == "reposition" else "tdr-1"
            ),
        }
        if blocked_at:
            entry["edges"] = [
                {"tid": int(tid), "rid": blocked_at[tid]}
                for tid in resolution.cycle
                if blocked_at.get(tid) is not None
            ]
        cycles.append(entry)
    record: Dict[str, Any] = {
        "schema": SCHEMA,
        "id": _new_incident_id(),
        "ts": time.time() if timestamp is None else float(timestamp),
        "source": str(source),
        "cycles": cycles,
        "aborted": [int(tid) for tid in result.aborted],
        "spared": [int(tid) for tid in result.spared],
        "repositions": [
            {"rid": event.rid, "delayed": [int(t) for t in event.delayed]}
            for event in result.repositions
        ],
        "stats": {
            "transactions": result.stats.transactions,
            "edges_examined": result.stats.edges_examined,
            "cycles_found": result.stats.cycles_found,
            "tdr1_applied": result.stats.tdr1_applied,
            "tdr2_applied": result.stats.tdr2_applied,
        },
    }
    if trace is not None:
        record["trace"] = str(trace)
    if span is not None:
        record["span"] = str(span)
    if epoch is not None:
        record["epoch"] = int(epoch)
    if workers is not None:
        record["workers"] = int(workers)
    if table_text is not None:
        record["table"] = str(table_text)
    if policy is not None:
        record["policy"] = str(policy)
    info = getattr(result, "cluster", None)
    if info is not None:
        record["cross_worker_cycles"] = info.cross_worker_cycles
        record["staleness"] = {
            "stale_victims": info.stale_victims,
            "stale_repositions": info.stale_repositions,
        }
        record["unreachable_workers"] = list(info.unreachable_workers)
    return record


# -- validation ------------------------------------------------------------


def _validate_candidate(entry: Any, where: str) -> List[str]:
    errors: List[str] = []
    if not isinstance(entry, dict):
        return [where + " must be an object"]
    kind = entry.get("kind")
    if kind not in ("abort", "reposition"):
        errors.append(
            "{}.kind must be 'abort' or 'reposition' (got {!r})".format(
                where, kind
            )
        )
        return errors
    if not isinstance(entry.get("cost"), _NUMBER):
        errors.append(where + ".cost must be numeric")
    if kind == "abort":
        if not isinstance(entry.get("tid"), int):
            errors.append(where + ".tid must be an integer")
    else:
        if not isinstance(entry.get("junction"), int):
            errors.append(where + ".junction must be an integer")
        if not isinstance(entry.get("rid"), str):
            errors.append(where + ".rid must be a string")
        for field in ("av", "st"):
            if not isinstance(entry.get(field), list):
                errors.append("{}.{} must be a list".format(where, field))
    return errors




def validate_incident(record: Any) -> List[str]:
    """Schema violations of one incident record (empty when valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("schema") != SCHEMA:
        errors.append(
            "schema must be {!r} (got {!r})".format(
                SCHEMA, record.get("schema")
            )
        )
    if not isinstance(record.get("id"), str) or not record.get("id"):
        errors.append("id must be a non-empty string")
    if not isinstance(record.get("ts"), _NUMBER):
        errors.append("ts must be a number")
    if record.get("source") not in ("service", "cluster"):
        errors.append(
            "source must be 'service' or 'cluster' (got {!r})".format(
                record.get("source")
            )
        )
    kind = record.get("kind", "deadlock")
    if kind != "deadlock":
        errors.append("kind must be 'deadlock' (got {!r})".format(kind))
    if "policy" in record and not isinstance(record["policy"], str):
        errors.append("policy must be a string")
    cycles = record.get("cycles")
    if not isinstance(cycles, list) or not cycles:
        errors.append("cycles must be a non-empty list")
    else:
        for index, entry in enumerate(cycles):
            where = "cycles[{}]".format(index)
            if not isinstance(entry, dict):
                errors.append(where + " must be an object")
                continue
            cycle = entry.get("cycle")
            if (
                not isinstance(cycle, list)
                or not cycle
                or not all(isinstance(tid, int) for tid in cycle)
            ):
                errors.append(
                    where + ".cycle must be a non-empty list of ints"
                )
            candidates = entry.get("candidates")
            if not isinstance(candidates, list) or not candidates:
                errors.append(
                    where + ".candidates must be a non-empty list"
                )
            else:
                for slot, candidate in enumerate(candidates):
                    errors.extend(
                        _validate_candidate(
                            candidate,
                            "{}.candidates[{}]".format(where, slot),
                        )
                    )
            errors.extend(
                _validate_candidate(entry.get("chosen"), where + ".chosen")
            )
            if entry.get("decision") not in ("tdr-1", "tdr-2"):
                errors.append(
                    where + ".decision must be 'tdr-1' or 'tdr-2'"
                )
            if "edges" in entry and not isinstance(entry["edges"], list):
                errors.append(where + ".edges must be a list")
    for field in ("aborted", "spared"):
        value = record.get(field)
        if not isinstance(value, list) or not all(
            isinstance(tid, int) for tid in value
        ):
            errors.append("{} must be a list of ints".format(field))
    repositions = record.get("repositions")
    if not isinstance(repositions, list):
        errors.append("repositions must be a list")
    else:
        for index, entry in enumerate(repositions):
            where = "repositions[{}]".format(index)
            if not isinstance(entry, dict) or not isinstance(
                entry.get("rid"), str
            ):
                errors.append(where + ".rid must be a string")
            elif not isinstance(entry.get("delayed"), list):
                errors.append(where + ".delayed must be a list")
    for field, kind in (
        ("trace", str), ("span", str), ("table", str),
        ("epoch", int), ("workers", int),
    ):
        if field in record and not isinstance(record[field], kind):
            errors.append(
                "{} must be a {}".format(field, kind.__name__)
            )
    if "staleness" in record and not isinstance(record["staleness"], dict):
        errors.append("staleness must be an object")
    if "stats" in record and not isinstance(record["stats"], dict):
        errors.append("stats must be an object")
    return errors


def validate_incident_file(path: str):
    """Validate a JSON-lines incident file; returns
    ``(record_count, errors)``."""
    errors: List[str] = []
    count = 0
    try:
        with open(path) as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                count += 1
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    errors.append(
                        "line {}: not JSON ({})".format(line_number, exc)
                    )
                    continue
                errors.extend(
                    "line {}: {}".format(line_number, problem)
                    for problem in validate_incident(record)
                )
    except OSError as exc:
        return 0, ["cannot read {}: {}".format(path, exc)]
    if count == 0:
        errors.append("{}: no records found".format(path))
    return count, errors


# -- rendering -------------------------------------------------------------


def _chosen_label(chosen: Dict[str, Any]) -> str:
    if chosen.get("kind") == "abort":
        return "abort T{} (cost {:g})".format(
            chosen.get("tid"), chosen.get("cost", 0.0)
        )
    if chosen.get("kind") == "reposition":
        return "reposition {} (cost {:g})".format(
            chosen.get("rid"), chosen.get("cost", 0.0)
        )
    return "?"


def incident_to_dot(record: Dict[str, Any]) -> str:
    """The incident's cycles as a Graphviz digraph: transactions as
    nodes, wait edges labeled with the blocking resource, the chosen
    victim highlighted."""
    lines = ["digraph incident {"]
    lines.append(
        '  label="{} ({})";'.format(record.get("id", "?"),
                                    record.get("source", "?"))
    )
    lines.append("  node [shape=circle];")
    victims = set()
    repositioned = set()
    for entry in record.get("cycles", ()):
        chosen = entry.get("chosen") or {}
        if chosen.get("kind") == "abort":
            victims.add(chosen.get("tid"))
        elif chosen.get("kind") == "reposition":
            repositioned.add(chosen.get("rid"))
    seen_nodes = set()
    for entry in record.get("cycles", ()):
        cycle = entry.get("cycle") or []
        rid_of = {
            edge.get("tid"): edge.get("rid")
            for edge in entry.get("edges", ())
        }
        for tid in cycle:
            if tid in seen_nodes:
                continue
            seen_nodes.add(tid)
            style = (
                ' [style=filled, fillcolor=red, fontcolor=white]'
                if tid in victims
                else ""
            )
            lines.append('  "T{}"{};'.format(tid, style))
        for position, tid in enumerate(cycle):
            succ = cycle[(position + 1) % len(cycle)]
            rid = rid_of.get(tid)
            attrs = []
            if rid is not None:
                attrs.append('label="{}"'.format(rid))
                if rid in repositioned:
                    attrs.append("style=dashed")
                    attrs.append('color=blue')
            suffix = " [{}]".format(", ".join(attrs)) if attrs else ""
            lines.append('  "T{}" -> "T{}"{};'.format(tid, succ, suffix))
    lines.append("}")
    return "\n".join(lines)


def render_incident(record: Dict[str, Any]) -> str:
    """One incident as an operator-readable report (``incidents show``)."""
    lines = [
        "incident {}  source={}  ts={:.3f}".format(
            record.get("id", "?"),
            record.get("source", "?"),
            record.get("ts", 0.0),
        )
    ]
    if record.get("policy"):
        lines.append("policy {}".format(record["policy"]))
    if record.get("trace"):
        lines.append(
            "trace {}  pass span {}".format(
                record["trace"], record.get("span", "-")
            )
        )
    if "epoch" in record:
        lines.append("restart epoch {}".format(record["epoch"]))
    if "workers" in record:
        lines.append(
            "workers {}  cross-worker cycles {}".format(
                record["workers"], record.get("cross_worker_cycles", 0)
            )
        )
    for index, entry in enumerate(record.get("cycles", ()), start=1):
        lines.append(
            "cycle {}: {} -> decision {} ({})".format(
                index,
                " -> ".join(
                    "T{}".format(tid) for tid in entry.get("cycle", ())
                ),
                entry.get("decision", "?"),
                _chosen_label(entry.get("chosen") or {}),
            )
        )
        for candidate in entry.get("candidates", ()):
            lines.append("  candidate: " + _chosen_label(candidate))
    lines.append(
        "aborted: {}  spared: {}".format(
            record.get("aborted") or "-", record.get("spared") or "-"
        )
    )
    if record.get("repositions"):
        lines.append(
            "repositioned queues: "
            + ", ".join(
                entry.get("rid", "?") for entry in record["repositions"]
            )
        )
    staleness = record.get("staleness")
    if staleness:
        lines.append(
            "stale: {} victims, {} repositions".format(
                staleness.get("stale_victims", 0),
                staleness.get("stale_repositions", 0),
            )
        )
    if record.get("table"):
        lines.append("snapshot:")
        lines.extend("  " + line for line in record["table"].splitlines())
    return "\n".join(lines)


# -- storage ---------------------------------------------------------------


def load_incidents(path: str, limit: int = 0) -> List[Dict[str, Any]]:
    """The newest ``limit`` records of a JSON-lines incident file
    (all of them with ``limit=0``); missing file reads as empty."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    if limit:
        records = records[-limit:]
    return records


class IncidentLog:
    """A bounded incident sink: an in-memory ring of the newest
    ``capacity`` records, optionally mirrored to a JSON-lines file that
    is compacted back to ``capacity`` records once it doubles (so a
    deadlock storm cannot grow the file without bound)."""

    def __init__(
        self, path: Optional[str] = None, capacity: int = 256
    ) -> None:
        self.path = path
        self.capacity = max(1, int(capacity))
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self.total = 0
        self._disk_records = 0
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            for record in load_incidents(path):
                self._ring.append(record)
                self._disk_records += 1
            self.total = self._disk_records

    def append(self, record: Dict[str, Any]) -> None:
        self._ring.append(record)
        self.total += 1
        if self.path is None:
            return
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._disk_records += 1
        if self._disk_records > 2 * self.capacity:
            self._compact()

    def _compact(self) -> None:
        keep = load_incidents(self.path, limit=self.capacity)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            for record in keep:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        self._disk_records = len(keep)

    def recent(self, limit: int = 0) -> List[Dict[str, Any]]:
        records = list(self._ring)
        if limit:
            records = records[-limit:]
        return records

    def __len__(self) -> int:
        return len(self._ring)

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        for record in records:
            self.append(record)
