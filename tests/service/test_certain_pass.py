"""The pass runs when the lock table proves a deadlock.

A clocked :class:`LockServer` (``period`` set, a policy that wants
passes) evaluates ``saturated()`` on its one post-step path: a step that
leaves every lock holder blocked closed a cycle for certain, so the
detection pass runs in that step and its victim is answered in the same
settle.  ``period`` then bounds only the deadlocks that spare a holder.

Live, over real sockets on the wire ``REPRO_WIRE`` selects (the CI
service leg runs this file on JSON and on binary frames), policy pinned
to ``periodic``.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import AsyncLockClient, LockServer

X, S = LockMode.X, LockMode.S


class Staged:
    """A started server whose detection passes are recorded, and two
    connected clients."""

    def __init__(self, period):
        self.server = LockServer(period=period, policy="periodic")
        self.passes = []
        step = self.server.core.detect_step

        def recording():
            self.passes.append(step())
            return self.passes[-1]

        self.server.core.detect_step = recording

    async def __aenter__(self):
        server = await self.server.start("127.0.0.1", 0)
        self.one = await AsyncLockClient.connect(server.host, server.port)
        self.two = await AsyncLockClient.connect(server.host, server.port)
        return self

    async def __aexit__(self, *exc_info):
        await self.one.disconnect()
        await self.two.disconnect()
        await self.server.aclose()

    @property
    def stats(self):
        return self.server.core.stats_payload()

    async def close_the_cycle(self):
        """T1: A then B, T2: B then A, all X.  Returns the two pending
        second requests and the time the cycle closed."""
        assert await self.one.acquire(1, "A", X)
        assert await self.two.acquire(2, "B", X)
        first = asyncio.ensure_future(self.one.acquire(1, "B", X))
        while not self.server.manager.is_blocked(1):
            await asyncio.sleep(0.001)
        closed = time.perf_counter()
        second = asyncio.ensure_future(self.two.acquire(2, "A", X))
        return [first, second], closed


async def outcome(waits, timeout):
    """(how many of the two waits were answered, how many of those with
    ``aborted``) within ``timeout``."""
    done, _ = await asyncio.wait(
        waits, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
    )
    aborted = [
        wait for wait in done
        if isinstance(wait.exception(), TransactionAborted)
    ]
    return len(done), len(aborted)


async def finish(waits):
    for wait in waits:
        wait.cancel()
    await asyncio.gather(*waits, return_exceptions=True)


def test_a_saturating_cycle_is_resolved_at_once_not_on_the_clock():
    async def go():
        async with Staged(period=5.0) as staged:
            waits, closed = await staged.close_the_cycle()
            answered, aborted = await outcome(waits, timeout=2.0)
            elapsed = time.perf_counter() - closed
            # The victim hears `aborted` (and the survivor its grant) in
            # the settle of the frame that closed the cycle.
            assert answered >= 1 and aborted == 1
            assert elapsed < 0.1
            stats = staged.stats
            assert stats["certain_passes"] == 1
            assert stats["detector_passes"] == 1  # no clock pass ran
            assert stats["victims_aborted"] == 1
            # Counted, not logged: every certain pass found a deadlock.
            assert [p.deadlock_found for p in staged.passes] == [True]
            await finish(waits)

    asyncio.run(go())


def test_a_cycle_that_spares_a_holder_waits_for_the_clock():
    async def go():
        async with Staged(period=0.4) as staged:
            # A third transaction holds an unrelated lock and runs on.
            assert await staged.one.acquire(3, "Z", S)
            waits, closed = await staged.close_the_cycle()
            assert await outcome(waits, timeout=0.15) == (0, 0)
            assert staged.stats["detector_passes"] == 0
            answered, aborted = await outcome(waits, timeout=2.0)
            assert answered >= 1 and aborted == 1
            assert time.perf_counter() - closed >= 0.15
            stats = staged.stats
            assert stats["certain_passes"] == 0
            assert stats["detector_passes"] >= 1
            await finish(waits)

    asyncio.run(go())


def test_the_spared_holder_leaving_makes_the_cycle_certain():
    async def go():
        async with Staged(period=5.0) as staged:
            assert await staged.one.acquire(3, "Z", S)
            waits, _ = await staged.close_the_cycle()
            assert await outcome(waits, timeout=0.15) == (0, 0)
            await staged.one.commit(3)  # the step that saturates
            answered, aborted = await outcome(waits, timeout=2.0)
            assert answered >= 1 and aborted == 1
            assert staged.stats["certain_passes"] == 1
            assert [p.deadlock_found for p in staged.passes] == [True]
            await finish(waits)

    asyncio.run(go())


def test_a_certain_pass_restarts_the_clock():
    """``period`` after the last pass *of either kind*: passes per
    second do not rise."""

    async def go():
        async with Staged(period=1.0) as staged:
            await asyncio.sleep(0.6)
            waits, _ = await staged.close_the_cycle()
            assert (await outcome(waits, timeout=2.0))[1] == 1
            await finish(waits)
            await asyncio.sleep(0.7)  # t = 1.3: a fixed tick was due at 1.0
            assert staged.stats["detector_passes"] == 1
            await asyncio.sleep(0.6)  # t = 1.9: due since 1.6
            assert staged.stats["detector_passes"] == 2
            assert staged.stats["certain_passes"] == 1

    asyncio.run(go())


@pytest.mark.parametrize(
    "kwargs",
    [{"period": None}, {"period": 5.0, "policy": "nowait"}],
    ids=["no-period", "nowait"],
)
def test_without_a_detector_clock_nothing_runs_unasked(kwargs):
    async def go():
        server = LockServer(**kwargs)
        await server.start("127.0.0.1", 0)
        client = await AsyncLockClient.connect(server.host, server.port)
        try:
            for tid, rid in ((1, "A"), (2, "B"), (1, "B")):
                await client.acquire(tid, rid, X, wait=False)
            try:
                await client.acquire(2, "A", X, wait=False)
            except TransactionAborted:
                pass  # the nowait lane refuses the wait itself
            assert server.stats.certain_passes == 0
            assert server.stats.detector_passes == 0
        finally:
            await client.disconnect()
            await server.aclose()

    asyncio.run(go())


class Counted(dict):
    """A dict that counts how it is asked about its size."""

    truth = sizes = views = 0

    def __bool__(self):
        self.truth += 1
        return len(dict.keys(self)) > 0

    def __len__(self):
        self.sizes += 1
        return len(dict.keys(self))

    def keys(self):
        self.views += 1
        return dict.keys(self)


def test_a_stream_where_nothing_blocks_pays_one_truth_test_per_step():
    """The tripwire: with nobody blocked the post-step path asks the
    blocked-at index whether it is empty, once, and never reaches the
    count test or the subset test."""

    async def go():
        server = LockServer(period=5.0, policy="periodic", shards=1)
        table = server.manager.table
        blocked = table._blocked_at = Counted()
        held = table._held = Counted()
        steps = []
        pump = server._pump
        server._pump = lambda: (steps.append(1), pump())[1]
        await server.start("127.0.0.1", 0)
        client = await AsyncLockClient.connect(
            server.host, server.port, heartbeat=False
        )
        try:
            for tid in range(1, 21):
                await client.begin(tid)
                for rid in ("A", "B", "C"):
                    assert await client.acquire(tid, rid, S)
                await client.commit(tid)
        finally:
            await client.disconnect()
            await server.aclose()
        assert len(steps) >= 100
        assert blocked.truth == len(steps)
        assert blocked.sizes == blocked.views == 0
        assert held.truth == held.sizes == held.views == 0
        assert server.stats.certain_passes == 0

    asyncio.run(go())
