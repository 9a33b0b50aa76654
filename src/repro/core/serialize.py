"""Serialization of lock-table state to and from plain dictionaries.

Lets applications snapshot a lock manager (debug dumps, golden tests,
cross-process inspection) and rebuild an identical table later.  The
format is intentionally boring JSON-ready data::

    {"resources": [
        {"rid": "R1",
         "total": "SIX",
         "holders": [{"tid": 1, "granted": "IX", "blocked": "SIX"}, ...],
         "queue": [{"tid": 5, "mode": "IX"}, ...]},
        ...]}

``loads``/``dumps`` wrap the dict functions with ``json``.  Round-trips
are exact: ``table_from_dict(table_to_dict(t))`` reproduces every holder,
queue entry, total mode and index (verified by property tests).

Dumps carry a versioned envelope (``{"v": 1, ...}``) so snapshots that
travel over the wire (:mod:`repro.service`) or live on disk stay
forward-compatible: a reader meeting a version it does not understand
raises a clear :class:`ReproError` instead of misparsing.  Envelopes
without a ``"v"`` key are accepted as version 1 (pre-versioning dumps).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..lockmgr.lock_table import LockTable
from .errors import ReproError
from .modes import parse_mode
from .requests import HolderEntry, QueueEntry, ResourceState

#: Version stamped into every dump's envelope.
FORMAT_VERSION = 1


def check_version(data: Dict[str, Any], what: str = "dump") -> int:
    """Validate the envelope version of ``data``.

    Returns the (defaulted) version.  Raises :class:`ReproError` when the
    envelope declares a version this reader does not understand.
    """
    version = data.get("v", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ReproError(
            "unsupported {} version {!r} (this reader understands "
            "version {})".format(what, version, FORMAT_VERSION)
        )
    return version


def state_to_dict(state) -> Dict[str, Any]:
    """One :class:`~repro.core.requests.ResourceState` as a JSON-ready
    dict — the per-resource entry of a :func:`table_to_dict` dump, also
    used by shard snapshots that serialize states without a table."""
    return {
        "rid": state.rid,
        "total": state.total.name,
        "holders": [
            {
                "tid": holder.tid,
                "granted": holder.granted.name,
                "blocked": holder.blocked.name,
            }
            for holder in state.holders
        ],
        "queue": [
            {"tid": waiter.tid, "mode": waiter.blocked.name}
            for waiter in state.queue
        ],
    }


def table_to_dict(table: LockTable) -> Dict[str, Any]:
    """Dump a lock table to a JSON-ready dict."""
    return {
        "v": FORMAT_VERSION,
        "resources": [state_to_dict(state) for state in table.resources()],
    }


def state_from_dict(entry: Dict[str, Any]) -> ResourceState:
    """One dump entry as a state; ReproError when its total is wrong."""
    state = ResourceState(entry["rid"])
    state.holders = [
        HolderEntry(
            tid=int(holder["tid"]),
            granted=parse_mode(holder["granted"]),
            blocked=parse_mode(holder.get("blocked", "NL")),
        )
        for holder in entry.get("holders", ())
    ]
    state.queue = [
        QueueEntry(tid=int(waiter["tid"]), blocked=parse_mode(waiter["mode"]))
        for waiter in entry.get("queue", ())
    ]
    state.recompute_total()
    declared = entry.get("total")
    if declared is not None and parse_mode(declared) is not state.total:
        raise ReproError(
            "dump of {} declares total {} but holders give {}".format(
                state.rid, declared, state.total.name
            )
        )
    return state


def table_from_dict(data: Dict[str, Any]) -> LockTable:
    """Rebuild a lock table (including indexes) from a dump.

    Raises :class:`ReproError` when the dump's envelope declares an
    unknown version, or as :func:`state_from_dict` does for an entry.
    """
    check_version(data, "lock-table dump")
    table = LockTable()
    for entry in data.get("resources", ()):
        table.install(state_from_dict(entry))
    return table


def dumps(table: LockTable, indent: int = 2) -> str:
    """Lock table as a JSON string."""
    return json.dumps(table_to_dict(table), indent=indent, sort_keys=True)


def loads(text: str) -> LockTable:
    """Lock table from a JSON string."""
    return table_from_dict(json.loads(text))
