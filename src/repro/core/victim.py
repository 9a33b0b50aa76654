"""TDR — the TRRP disconnection rule — and victim selection (Section 4).

Given a deadlock cycle, the paper identifies its **victim candidates** at
the TRRP junctions (the sources of the cycle's H edges; equivalently the
blocked transactions whose wait links two TRRPs):

TDR-1
    Abort the junction transaction ``Tj``.  Candidate cost:
    ``Cost(Tj)`` from the cost table.
TDR-2
    Applicable when the cycle *enters* ``Tj`` through a W edge (``Tj``
    waits in the queue of some resource ``Rx``) and ``Tj``'s blocked mode
    is compatible with ``Rx``'s total mode.  Split the queue prefix up to
    and including ``Tj``'s request into **AV** (blocked modes compatible
    with the total mode) and **ST** (incompatible), and move the ST
    requests right behind AV.  Nobody aborts; the ST requests are merely
    delayed, so the candidate cost is ``sum(Cost(t) for t in ST) / 2``.

Lemma 4.1 guarantees the repositioned AV requests can no longer take part
in any deadlock; Theorem 4.1 concludes TDR resolves the cycle either way.

Among a cycle's candidates the minimum-cost one wins; ties prefer TDR-2
(resolution without abort — the paper's headline feature) and then the
smaller transaction id, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .modes import LockMode, compatible
from .requests import ResourceState

_NL = LockMode.NL


class CostTable:
    """Per-transaction abort costs with the paper's TDR-2 penalty hook.

    The paper leaves the cost metric open ("number of locks it holds,
    starting time, the amount of CPU and I/O consumed, and so on"); this
    table stores whatever the application computes, defaulting unknown
    transactions to ``default`` (1.0 — every abort equally bad).

    ``penalty`` implements Section 5's anti-livelock rule: each time a
    transaction's request is delayed by TDR-2, its cost is incremented "by
    some value which might be determined according to the current cost of
    the transaction and the period".  The default doubles the cost (with a
    floor of 1), so a repeatedly delayed transaction quickly becomes too
    expensive to delay again.
    """

    def __init__(
        self,
        costs: Optional[Dict[int, float]] = None,
        default: float = 1.0,
        penalty: Optional[Callable[[float], float]] = None,
    ) -> None:
        self._costs: Dict[int, float] = dict(costs or {})
        self._default = default
        self._penalty = penalty if penalty is not None else _default_penalty

    def cost(self, tid: int) -> float:
        """The abort cost of ``tid``."""
        return self._costs.get(tid, self._default)

    def set_cost(self, tid: int, value: float) -> None:
        self._costs[tid] = value

    def apply_delay_penalty(self, tid: int) -> float:
        """Bump ``tid``'s cost after a TDR-2 delay; returns the new cost."""
        new_cost = self.cost(tid) + self._penalty(self.cost(tid))
        self._costs[tid] = new_cost
        return new_cost

    def forget(self, tid: int) -> None:
        """Drop a finished transaction's entry."""
        self._costs.pop(tid, None)

    def __contains__(self, tid: int) -> bool:
        return tid in self._costs


def _default_penalty(current_cost: float) -> float:
    return max(current_cost, 1.0)


class AbortCandidate(NamedTuple):
    """TDR-1: abort ``tid``.  ``rid`` is where the victim is blocked."""

    tid: int
    rid: Optional[str]
    cost: float

    kind = "abort"

    def __str__(self) -> str:
        return "abort T{} (cost {:g})".format(self.tid, self.cost)


class RepositionCandidate(NamedTuple):
    """TDR-2: delay the ST requests of ``rid`` behind the AV requests.

    ``junction`` is the transaction whose wait triggered the rule; ``av``
    and ``st`` list transaction ids in (current) queue order.
    """

    junction: int
    rid: str
    av: Tuple[int, ...]
    st: Tuple[int, ...]
    cost: float

    kind = "reposition"

    def __str__(self) -> str:
        return "reposition {} of {} behind {} (cost {:g})".format(
            "/".join("T{}".format(t) for t in self.st),
            self.rid,
            "/".join("T{}".format(t) for t in self.av),
            self.cost,
        )


VictimCandidate = object  # either AbortCandidate or RepositionCandidate


def split_av_st(
    state: ResourceState, upto_tid: int
) -> Tuple[List[int], List[int]]:
    """Split the queue prefix of ``state`` ending at ``upto_tid``'s request
    (inclusive) into AV and ST transaction-id lists (Definition 4.1's
    TDR-2).  Raises ``ValueError`` if ``upto_tid`` is not queued."""
    position = state.queue_position(upto_tid)
    if position < 0:
        raise ValueError(
            "T{} is not in the queue of {}".format(upto_tid, state.rid)
        )
    av: List[int] = []
    st: List[int] = []
    # Entries before the memoized AV-prefix boundary are compatible with
    # the total mode by definition — no per-entry re-check needed there.
    boundary = state.av_prefix_length()
    for index, entry in enumerate(state.queue[: position + 1]):
        if index < boundary or compatible(state.total, entry.blocked):
            av.append(entry.tid)
        else:
            st.append(entry.tid)
    return av, st


def candidates_for_cycle(
    cycle_edges: Sequence,
    resource_lookup: Callable[[str], ResourceState],
    costs: CostTable,
) -> List[VictimCandidate]:
    """All TDR victim candidates of one cycle, given its edge sequence
    in cycle order — :class:`~repro.core.hw_twbg.Edge` records (e.g.
    from :meth:`HWTWBG.cycle_edges`) or the walk's
    :class:`~repro.core.tst.TSTEdge` records, read as they are: an edge
    is H when its ``lock`` is ``NL``, and its source is the previous
    edge's ``target``.

    ``resource_lookup`` maps a resource id to its current state (use
    ``lock_table.existing``).  TDR-1 yields one candidate per junction —
    blocked where the cycle enters it: every edge's target waits at the
    edge's resource (ECR-1/2 draw H edges to blocked requests, ECR-3 W
    edges to queued ones).  TDR-2 adds one more where applicable.
    """
    candidates: List[VictimCandidate] = []
    entering = cycle_edges[-1]
    for edge in cycle_edges:
        if edge.lock is not _NL:
            entering = edge
            continue
        junction = entering.target
        candidates.append(
            AbortCandidate(junction, entering.rid, costs.cost(junction))
        )
        if entering.lock is not _NL:
            state = resource_lookup(entering.rid)
            entry = state.queue_entry(junction)
            if entry is not None and compatible(state.total, entry.blocked):
                av, st = split_av_st(state, junction)
                if st:
                    candidates.append(RepositionCandidate(
                        junction, state.rid, tuple(av), tuple(st),
                        sum(map(costs.cost, st)) / 2.0,
                    ))
        entering = edge
    return candidates


def select_victim(
    candidates: Sequence[VictimCandidate],
) -> VictimCandidate:
    """The minimum-cost candidate; ties prefer TDR-2 (no abort), then the
    smaller junction/victim id.  Raises ``ValueError`` on empty input."""
    if not candidates:
        raise ValueError("a deadlock cycle always has TDR candidates")
    best = best_key = None
    for candidate in candidates:
        key = (
            (candidate.cost, 1, candidate.tid)
            if candidate.kind == "abort"
            else (candidate.cost, 0, candidate.junction)
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


@dataclass
class Resolution:
    """Record of one resolved cycle — for reporting and experiments."""

    cycle: List[int]
    candidates: List[VictimCandidate] = field(default_factory=list)
    chosen: Optional[VictimCandidate] = None
