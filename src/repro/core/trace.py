"""Step-by-step tracing of the periodic detection-resolution walk.

For debugging, teaching and regression-pinning the algorithm's exact
behavior, :func:`trace_detection` runs one periodic pass with an observer
attached and returns both the normal :class:`DetectionResult` and the
ordered list of walk events:

``root``         a new Step-2 walk starts at a transaction
``examine``      the walk looks at the current edge of a vertex
``descend``      the walk follows the edge (target joins the path)
``backtrack``    a vertex is exhausted; the walk pops to its ancestor
``cycle-found``  the current edge closes a cycle
``victim``       TDR candidates were costed and one chosen
``abort``        Step 3 confirms an abort
``spare``        Step 3 spares a tentative victim (Example 5.1's T3)

``format_trace`` renders the events as an indented text log; the test
suite pins the paper's Example 5.1 trace with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..lockmgr.lock_table import LockTable
from .detection import DetectionResult, detect_once
from .victim import CostTable


@dataclass(frozen=True)
class TraceEvent:
    """One observed step: the event name and its payload."""

    event: str
    info: Tuple[Tuple[str, object], ...]

    def get(self, key: str, default=None):
        return dict(self.info).get(key, default)

    def __str__(self) -> str:
        payload = ", ".join(
            "{}={}".format(key, value) for key, value in self.info
        )
        return "{}({})".format(self.event, payload)


@dataclass
class Trace:
    """The full event sequence of one detection pass."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, event: str, **info) -> None:
        self.events.append(
            TraceEvent(event=event, info=tuple(sorted(info.items())))
        )

    def of_kind(self, event: str) -> List[TraceEvent]:
        return [e for e in self.events if e.event == event]

    def cycles(self) -> List[List[int]]:
        """The cycles in detection order (from the ``victim`` events)."""
        return [list(e.get("cycle")) for e in self.of_kind("victim")]

    def __len__(self) -> int:
        return len(self.events)


def trace_detection(
    table: LockTable,
    costs: Optional[CostTable] = None,
    roots: Optional[List[int]] = None,
    allow_tdr2: bool = True,
) -> Tuple[DetectionResult, Trace]:
    """One periodic (or rooted) detection pass with full tracing."""
    trace = Trace()
    result = detect_once(
        table, costs, roots=roots, allow_tdr2=allow_tdr2, observer=trace.record
    )
    return result, trace


_INDENTED = {"examine", "descend", "backtrack", "cycle-found"}


def format_trace(trace: Trace) -> str:
    """Render a trace as an indented, human-readable walk log."""
    lines: List[str] = []
    for event in trace.events:
        prefix = "  " if event.event in _INDENTED else ""
        if event.event == "root":
            lines.append("walk from T{}".format(event.get("tid")))
        elif event.event == "examine":
            target = event.get("target")
            lines.append(
                "{}T{} examines -{}-> {}".format(
                    prefix,
                    event.get("tid"),
                    event.get("label"),
                    "T{}".format(target) if target else "(end of queue)",
                )
            )
        elif event.event == "descend":
            lines.append(
                "{}descend T{} -> T{}".format(
                    prefix, event.get("tid"), event.get("target")
                )
            )
        elif event.event == "backtrack":
            parent = event.get("parent")
            lines.append(
                "{}backtrack from T{} to {}".format(
                    prefix,
                    event.get("tid"),
                    "T{}".format(parent) if parent > 0 else "(root done)",
                )
            )
        elif event.event == "cycle-found":
            lines.append(
                "{}CYCLE: edge T{} -> T{} closes the path".format(
                    prefix, event.get("tid"), event.get("closes")
                )
            )
        elif event.event == "victim":
            lines.append(
                "resolve cycle {} by: {}".format(
                    event.get("cycle"), event.get("chosen")
                )
            )
        elif event.event == "abort":
            lines.append("Step 3: abort T{}".format(event.get("tid")))
        elif event.event == "spare":
            lines.append(
                "Step 3: spare T{} (already granted)".format(event.get("tid"))
            )
        else:  # pragma: no cover - future event kinds
            lines.append(str(event))
    return "\n".join(lines)
