"""Parser and formatter for the paper's lock-table notation.

The paper displays lock-table states like::

    R1(SIX): Holder((T1, IX, SIX) (T2, IS, S) (T3, IX, NL) (T4, IS, NL))
             Queue((T5, IX) (T6, S) (T7, IX))

This module turns such strings into :class:`~repro.core.requests.ResourceState`
objects and back, so tests and examples can state scenarios in exactly the
paper's words.  Example 5.1 additionally abbreviates queue entries as
``T2(X)``; both spellings are accepted.

The parser is deliberately forgiving about whitespace and entry
separators (spaces or commas between parenthesised entries) but strict
about structure: a resource line must contain a resource name, an optional
total mode, a ``Holder(...)`` group and a ``Queue(...)`` group.
"""

from __future__ import annotations

import re
from typing import List

from .errors import NotationError
from .modes import parse_mode
from .requests import HolderEntry, QueueEntry, ResourceState

_RESOURCE_RE = re.compile(
    r"""^\s*(?P<rid>\w+)\s*(?:\(\s*(?P<total>\w+)\s*\))?\s*:\s*
        Holder\s*\((?P<holders>.*?)\)\s*
        Queue\s*\((?P<queue>.*?)\)\s*$""",
    re.VERBOSE | re.DOTALL,
)

#: ``(T1, IX, SIX)`` — holder entry.
_HOLDER_ENTRY_RE = re.compile(
    r"\(\s*T?(?P<tid>\d+)\s*,\s*(?P<gm>\w+)\s*,\s*(?P<bm>\w+)\s*\)"
)

#: ``(T5, IX)`` — queue entry, or Example 5.1's short form ``T2(X)``.
_QUEUE_ENTRY_RE = re.compile(
    r"\(\s*T?(?P<tid>\d+)\s*,\s*(?P<bm>\w+)\s*\)"
    r"|T?(?P<tid2>\d+)\s*\(\s*(?P<bm2>\w+)\s*\)"
)


def parse_resource(text: str) -> ResourceState:
    """Parse one resource line in the paper's notation.

    The total mode in the heading, when present, is checked against the
    recomputed total of the parsed holder list; a mismatch raises
    :class:`NotationError` (it would mean the scenario is transcribed
    inconsistently).

    >>> state = parse_resource(
    ...     "R2(IS): Holder((T7, IS, NL)) "
    ...     "Queue((T8, X) (T9, IX) (T3, S) (T4, X))")
    >>> state.rid, state.total.name, len(state.queue)
    ('R2', 'IS', 4)
    """
    match = _RESOURCE_RE.match(text)
    if match is None:
        raise NotationError("not a resource line: {!r}".format(text))

    state = ResourceState(rid=match.group("rid"))
    for entry_match in _HOLDER_ENTRY_RE.finditer(match.group("holders")):
        state.holders.append(
            HolderEntry(
                tid=int(entry_match.group("tid")),
                granted=parse_mode(entry_match.group("gm")),
                blocked=parse_mode(entry_match.group("bm")),
            )
        )
    for entry_match in _QUEUE_ENTRY_RE.finditer(match.group("queue")):
        tid = entry_match.group("tid") or entry_match.group("tid2")
        mode = entry_match.group("bm") or entry_match.group("bm2")
        state.enqueue(QueueEntry(tid=int(tid), blocked=parse_mode(mode)))

    state.recompute_total()
    declared = match.group("total")
    if declared is not None:
        declared_mode = parse_mode(declared)
        if declared_mode is not state.total:
            raise NotationError(
                "declared total mode {} of {} disagrees with computed {}".format(
                    declared_mode.name, state.rid, state.total.name
                )
            )
    return state


def parse_table(text: str) -> List[ResourceState]:
    """Parse several resource lines (one per line; blank lines ignored).

    Lines are joined when a continuation does not start a new ``Rx...:``
    heading, so the two-line layout used in the paper works verbatim.
    """
    merged: List[str] = []
    heading = re.compile(r"^\s*\w+\s*(\(\s*\w+\s*\))?\s*:")
    for line in text.splitlines():
        if not line.strip():
            continue
        if heading.match(line) or not merged:
            merged.append(line)
        else:
            merged[-1] += " " + line
    return [parse_resource(line) for line in merged]


def format_resource(state: ResourceState) -> str:
    """Render a resource in the paper's notation (inverse of parsing)."""
    return str(state)


def format_table(states: List[ResourceState]) -> str:
    """Render several resources, one per line."""
    return "\n".join(format_resource(state) for state in states)


def load_table(lock_table, text: str):
    """Install the resource states described by ``text`` into a live
    :class:`~repro.lockmgr.lock_table.LockTable`, updating its holder and
    blocked indexes.  Returns the lock table.

    This is how tests and benchmarks replay the paper's printed lock-table
    states verbatim; the result is indistinguishable from a table reached
    through real scheduler requests.
    """
    for state in parse_table(text):
        if state.rid in lock_table:
            raise NotationError(
                "resource {} is already populated".format(state.rid)
            )
        state.recompute_total()  # resync the cached summaries too
        lock_table.install(state)
    return lock_table
