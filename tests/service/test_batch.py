"""The pipelined ``batch`` op: one frame, many sub-ops, one writer pass.

Covers the wire semantics (per-op results in order, in-place errors,
never-waiting locks), the client convenience ``acquire_many`` and the
batch counters/telemetry.
"""

import asyncio
import contextlib

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service import AsyncLockClient, LockServer, ServiceError
from repro.service.protocol import MAX_BATCH_OPS


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    server = LockServer(**kwargs)
    await server.start("127.0.0.1", 0)
    try:
        yield server
    finally:
        await server.aclose()


@contextlib.asynccontextmanager
async def connected(server, **kwargs):
    client = await AsyncLockClient.connect(
        server.host, server.port, **kwargs
    )
    try:
        yield client
    finally:
        await client.close()


class TestBatchOp:
    def test_whole_transaction_in_one_frame(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    results = await client.batch([
                        {"op": "begin", "tid": 1},
                        {"op": "lock", "tid": 1, "rid": "R1", "mode": "IX"},
                        {"op": "lock", "tid": 1, "rid": "R2", "mode": "S"},
                        {"op": "commit", "tid": 1},
                    ])
                    assert [r["op"] for r in results] == [
                        "begin", "lock", "lock", "commit",
                    ]
                    assert all(r["ok"] for r in results)
                    assert results[1]["status"] == "granted"
                    assert results[2]["status"] == "granted"
                    assert results[3] == {"op": "commit", "ok": True, "tid": 1}
                    stats = await client.stats()
                    assert stats["batches"] == 1
                    assert stats["batched_ops"] == 4
                    assert stats["grants"] == 2
                    assert stats["commits"] == 1

        asyncio.run(scenario())

    def test_contended_lock_reports_blocked_and_stays_queued(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    await client.begin(1)
                    assert await client.acquire(1, "R1", LockMode.X)
                    results = await client.batch([
                        {"op": "begin", "tid": 2},
                        {"op": "lock", "tid": 2, "rid": "R1", "mode": "S"},
                    ])
                    assert results[1]["ok"]
                    assert results[1]["status"] == "blocked"
                    # The request stayed queued: committing T1 grants it.
                    await client.commit(1)
                    # A resumed waiting lock picks up the same position.
                    assert await client.acquire(2, "R1", LockMode.S)
                    await client.commit(2)

        asyncio.run(scenario())

    def test_sub_op_error_reported_in_place(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    results = await client.batch([
                        {"op": "begin", "tid": 1},
                        {"op": "lock", "tid": 1, "mode": "X"},  # no rid
                        {"op": "nonsense"},
                        {"op": "lock", "tid": 1, "rid": "R1", "mode": "X"},
                    ])
                    assert results[0]["ok"]
                    assert not results[1]["ok"]
                    assert results[1]["error"]["code"] == "bad-request"
                    assert not results[2]["ok"]
                    assert results[2]["error"]["code"] == "bad-op"
                    # The batch continued past the failures.
                    assert results[3]["ok"]
                    assert results[3]["status"] == "granted"

        asyncio.run(scenario())

    def test_not_owner_error_in_place(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as one:
                    async with connected(server) as two:
                        await one.begin(1)
                        results = await two.batch([
                            {"op": "lock", "tid": 1, "rid": "R", "mode": "S"},
                        ])
                        assert not results[0]["ok"]
                        assert results[0]["error"]["code"] == "not-owner"

        asyncio.run(scenario())

    def test_empty_and_oversized_batches_rejected(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client.batch([])
                    assert excinfo.value.code == "bad-request"
                    too_many = [
                        {"op": "begin"}
                    ] * (MAX_BATCH_OPS + 1)
                    with pytest.raises(ServiceError) as excinfo:
                        await client.batch(too_many)
                    assert excinfo.value.code == "batch-too-large"

        asyncio.run(scenario())

    def test_abort_sub_op(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    results = await client.batch([
                        {"op": "begin", "tid": 3},
                        {"op": "lock", "tid": 3, "rid": "R1", "mode": "X"},
                        {"op": "abort", "tid": 3},
                    ])
                    assert all(r["ok"] for r in results)
                    # R1 is free again.
                    assert await client.acquire(9, "R1", LockMode.X)

        asyncio.run(scenario())


class TestAcquireMany:
    def test_uncontended_set_one_roundtrip(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    await client.begin(1)
                    assert await client.acquire_many(
                        1, [("R1", LockMode.IX), ("R2", "S"), ("R3", "X")]
                    )
                    held = await client.holding(1)
                    assert held == {
                        "R1": LockMode.IX,
                        "R2": LockMode.S,
                        "R3": LockMode.X,
                    }
                    stats = await client.stats()
                    assert stats["batches"] == 1

        asyncio.run(scenario())

    def test_contended_lock_falls_back_to_waiting(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    await client.begin(1)
                    assert await client.acquire(1, "R2", LockMode.X)

                    async def release_later():
                        await asyncio.sleep(0.05)
                        await client.commit(1)

                    releaser = asyncio.ensure_future(release_later())
                    await client.begin(2)
                    assert await client.acquire_many(
                        2, [("R1", LockMode.S), ("R2", LockMode.S)]
                    )
                    await releaser
                    held = await client.holding(2)
                    assert set(held) == {"R1", "R2"}

        asyncio.run(scenario())

    def test_empty_set_is_true(self):
        async def scenario():
            async with running_server(period=None) as server:
                async with connected(server) as client:
                    await client.begin(1)
                    assert await client.acquire_many(1, [])

        asyncio.run(scenario())

    def test_victim_raises_transaction_aborted(self):
        async def scenario():
            async with running_server(
                period=None, policy="continuous"
            ) as server:
                async with connected(server) as client:
                    await client.begin(1)
                    await client.begin(2)
                    assert await client.acquire(1, "R1", LockMode.X)
                    assert await client.acquire(2, "R2", LockMode.X)
                    # T1 blocks on R2; T2's request for R1 closes the
                    # cycle and the continuous detector aborts T1 (the
                    # victim), granting T2 on the spot.
                    assert not await client.acquire(
                        1, "R2", LockMode.X, wait=False
                    )
                    assert await client.acquire(2, "R1", LockMode.X)
                    # The victim's batched lock answers aborted, which
                    # acquire_many surfaces as TransactionAborted.
                    with pytest.raises(TransactionAborted):
                        await client.acquire_many(1, [("R3", LockMode.S)])

        asyncio.run(scenario())


@pytest.mark.parametrize("wire", ["json", "binary"])
def test_the_benchmark_reads_what_a_batch_reply_carries(wire):
    """``bench/svc.py``'s ``run_batch`` reads each lock result's ``ok``,
    then its ``error`` code and message, then its ``status``, and falls
    back to a waiting ``acquire`` on ``blocked``: driven as it is
    through ``AsyncLockClient.batch``, a granted, a blocked, a refused
    and an aborted transaction each end as the benchmark counts them."""
    from bench.svc import run_batch

    async def scenario():
        async with running_server(period=None) as server:
            async with connected(server, wire=wire) as client:
                await run_batch(client, [("A", "S"), ("B", "X")], lambda: 1)
                assert server.stats.commits == 1
                # T2 holds C, so T3's lock on C blocks and waits.
                await client.begin(2)
                assert await client.acquire(2, "C", LockMode.X)
                waiting = asyncio.ensure_future(
                    run_batch(client, [("D", "S"), ("C", "S")], lambda: 3)
                )
                await asyncio.sleep(0.05)
                assert not waiting.done() and server.manager.is_blocked(3)
                await client.commit(2)
                await waiting
                assert server.stats.commits == 3
                with pytest.raises(ServiceError) as refused:
                    await run_batch(client, [("E", "XXL")], lambda: 4)
                assert refused.value.code == "bad-request"
                assert refused.value.message == (
                    "field 'mode' must be a lock mode name"
                )
                # T5 and T6 close a cycle; the pass aborts one of them,
                # whose next batched lock answers aborted.
                for tid, rid in ((5, "P"), (6, "Q")):
                    await client.begin(tid)
                    assert await client.acquire(tid, rid, LockMode.X)
                assert not await client.acquire(5, "Q", "X", wait=False)
                assert not await client.acquire(6, "P", "X", wait=False)
                (victim,) = (await client.detect()).aborted
                with pytest.raises(TransactionAborted):
                    await run_batch(client, [("Z", "S")], lambda: victim)
                # Every failed transaction was aborted behind it.
                assert server.stats.aborts == 2
                assert server.manager.holding(4) == {}
                assert server.manager.holding(victim) == {}

    asyncio.run(scenario())
