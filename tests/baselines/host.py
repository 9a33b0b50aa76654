"""A one-shard lock core over a scenario table, for driving policy
hooks the way the simulator does."""

from repro.lockmgr.sharded import ShardedLockCore


def hosted(table, policy="periodic", costs=None):
    """A one-shard core serving ``policy`` over a copy of ``table``."""
    core = ShardedLockCore(costs=costs, policy=policy)
    for state in table.resources():
        core.table.install(state.copy())
    return core


def block(core, tid):
    """Run the policy's at-block hook for ``tid``, blocked in ``core``."""
    return core.policy.on_block(core, tid, core.blocked_at(tid), None)
