"""The full-table detector pass, kept as a test-side oracle.

Every detector activation reads :meth:`LockTable.waiting_resources` —
the resources somebody is blocked at — and nothing else of the table.
Inside :func:`full_table_pass` that one method answers with *every*
resource (in first-lock order), which turns each activation in the
block back into the pass the repository ran before it went sparse: the
TST loads all rows, shard snapshots copy all rows, worker ``snapshot``
payloads ship all rows.  Comparing the two is the proof that the rows
left out contribute nothing.
"""

from contextlib import contextmanager
from unittest import mock

from repro.check.lockstep import detection_summary
from repro.lockmgr.lock_table import LockTable


def _every_resource(table):
    return sorted(
        table.resources(), key=lambda state: table.sequence_of(state.rid)
    )


@contextmanager
def full_table_pass():
    with mock.patch.object(LockTable, "waiting_resources", _every_resource):
        yield


def outputs(result):
    """What a pass decided and did: the explorer's detection summary
    with the walk counters narrowed to the ones not defined over the
    rows loaded (``transactions`` and ``backtrack_steps`` are)."""
    if result is None:
        return None
    summary = detection_summary(result)
    summary["walk"] = summary["walk"][1:6]
    return summary
