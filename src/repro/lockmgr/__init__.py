"""The lock manager substrate: lock table, Section-3 scheduler, the
lock core and its blocking facade.

``LockManager`` and ``ConcurrentLockManager`` are the older public
names of :class:`ShardedLockCore` and :class:`ShardedLockManager` — the
same classes, whose default is one shard."""

from .contract import BlockingLockManager, LockCore
from .events import Aborted, Blocked, Granted, Repositioned
from .introspect import (
    BlockExplanation,
    explain_block,
    render_report,
    wait_graph_summary,
)
from .lock_table import LockTable
from .sharded import (
    MergedTableView,
    ShardedLockCore,
    ShardedLockManager,
    resolve_shard_count,
    shard_of,
)
from .scheduler import (
    RequestOutcome,
    conversion_grantable,
    release_all,
    remove_waiter,
    reposition_queue,
    request,
    sweep,
)

LockManager = ShardedLockCore
ConcurrentLockManager = ShardedLockManager

__all__ = [
    "Aborted",
    "Blocked",
    "BlockExplanation",
    "BlockingLockManager",
    "ConcurrentLockManager",
    "Granted",
    "LockCore",
    "LockManager",
    "LockTable",
    "MergedTableView",
    "Repositioned",
    "RequestOutcome",
    "ShardedLockCore",
    "ShardedLockManager",
    "conversion_grantable",
    "explain_block",
    "release_all",
    "remove_waiter",
    "render_report",
    "reposition_queue",
    "request",
    "resolve_shard_count",
    "shard_of",
    "sweep",
    "wait_graph_summary",
]
