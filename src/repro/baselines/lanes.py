"""Two simulator-only lanes around the paper's detector: batched rooted
passes and timeouts.  Neither is in :data:`repro.policy.POLICIES`.

**Batched** detection sits between the paper's two drivers.  The
periodic algorithm walks from *every* transaction each period, the
continuous companion walks from the *one* transaction that just
blocked, on every block.  The batched lane remembers which transactions
blocked since the last pass and, when flushed (by the periodic pass or
a batch-size threshold), runs one pass rooted at exactly those
transactions.  Every cycle that appeared since the last flush contains
an edge that appeared with some block event, so walking from the
recorded blockers finds it: one TST build per flush, like one period,
but Step 2 touches only the subgraphs reachable from actual waiters.
(Like the continuous detector, a cycle formed purely by a *grant*
reshuffle is only found once some root reaches it — see the note in
:mod:`repro.baselines.elmagarmid`; the periodic all-roots walk has no
such blind spot.)

**Timeout** "resolution" (refs [2, 3]'s comparison point) uses no graph
at all: any transaction blocked for ``timeout`` time units is presumed
deadlocked and aborted.  Cheap, but it aborts slow waiters that are not
deadlocked at all (false positives) and leaves real deadlocks standing
for the full timeout (maximal latency) — the two failure modes the
comparative benchmarks quantify.  The policy only names the limit
(``wait_limit``); the waiter keeps the clock.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..core.detection import DetectionResult, _DetectionRun
from ..policy.base import DetectionPolicy


class BatchedPolicy(DetectionPolicy):
    """Record blockers; resolve them in one rooted pass every
    ``batch_size`` blocks (None: only when the host's ``detect`` runs)
    and at every ``detect``, so stragglers never wait forever."""

    def __init__(self, batch_size: Optional[int] = 4) -> None:
        self.batch_size = batch_size
        self.name = "park-batched({})".format(batch_size)
        self._pending: Set[int] = set()
        self.flushes = 0

    @property
    def pending(self) -> List[int]:
        """Blockers recorded since the last flush."""
        return sorted(self._pending)

    def _flush(self, host) -> DetectionResult:
        roots = sorted(self._pending)
        self._pending.clear()
        self.flushes += 1
        return _DetectionRun(host.table, host.costs, roots=roots).execute()

    def on_block(self, host, tid, rid, mode):
        self._pending.add(tid)
        if self.batch_size is not None and (
            len(self._pending) >= self.batch_size
        ):
            return self._flush(host)
        return None

    def detect(self, host):
        if not self._pending:
            return DetectionResult()
        result = self._flush(host)
        host._absorb_live(result)
        return result


class TimeoutPolicy(DetectionPolicy):
    """Abort any transaction blocked for ``timeout`` time units."""

    wants_periodic = False

    def __init__(self, timeout: float = 10.0) -> None:
        self.wait_limit = timeout
        self.name = "timeout({:g})".format(timeout)
