"""Policies over the wire: the service layer's policy surfaces.

The acceptance scenario for the predictive lane lives here: stage a
one-edge-short pattern against a ``policy="predict"`` server, watch
the warning surface as a ``repro_near_cycles_total`` increment and a
``kind: "near-cycle"`` incident record, then close the pattern and
watch the very deadlock the warning predicted get resolved — with the
policy name stamped on the forensics record.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.obs import parse_exposition
from repro.service import LoopbackServer
from repro.service.client import AsyncLockClient


def run(coro):
    return asyncio.run(coro)


def metric(server, name, **labels):
    exposition = parse_exposition(
        server.core.telemetry.registry.render()
    )
    return exposition.get((name, tuple(sorted(labels.items()))), 0.0)


class TestPredictService:
    def test_near_cycle_warning_then_deadlock(self):
        # period=None: the test runs its own passes (a clocked server
        # would resolve the saturating cycle before the ``detect``).
        with LoopbackServer(period=None, policy="predict") as loopback:
            async def scenario():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port
                )
                try:
                    assert await client.acquire(1, "R1", LockMode.X)
                    assert await client.acquire(2, "R2", LockMode.X)
                    # T2 waits for T1 while holding R2: one edge short.
                    assert not await client.acquire(
                        2, "R1", LockMode.X, wait=False
                    )
                    result = await client.detect()
                    assert not result.deadlock_found

                    stats = await client.stats()
                    assert stats["policy"] == "predict"
                    assert stats["policy_info"]["near_cycles_total"] == 1

                    # Close the predicted cycle; the pass resolves it.
                    assert not await client.acquire(
                        1, "R2", LockMode.X, wait=False
                    )
                    result = await client.detect()
                    assert result.deadlock_found
                finally:
                    await client.close()

            run(scenario())
            server = loopback.server
            assert metric(
                server, "repro_near_cycles_total", policy="predict"
            ) >= 1.0
            assert metric(
                server, "repro_detection_policy", policy="predict"
            ) == 1.0

            records = server.core.incidents.recent(10)
            kinds = [record.get("kind", "deadlock") for record in records]
            assert "near-cycle" in kinds
            warning = next(
                r for r in records if r.get("kind") == "near-cycle"
            )
            assert warning["policy"] == "predict"
            assert warning["near_cycles"] == 1
            (pattern,) = warning["patterns"]
            assert pattern["path"] == [1, 2]
            assert pattern["close"] == {"tid": 1, "holds": ["R2"]}
            # ... and the deadlock it predicted, resolved and stamped.
            deadlock = next(
                r for r in records
                if r.get("kind", "deadlock") == "deadlock"
            )
            assert deadlock["policy"] == "predict"
            assert deadlock["cycles"]


class TestNoWaitService:
    def test_out_of_order_wait_aborts_over_the_wire(self):
        with LoopbackServer(period=60.0, policy="nowait") as loopback:
            async def scenario():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port
                )
                try:
                    assert await client.acquire(1, "R2", LockMode.X)
                    assert await client.acquire(2, "R1", LockMode.X)
                    # In-order wait queues as usual.
                    assert not await client.acquire(
                        2, "R2", LockMode.X, wait=False
                    )
                    # Out-of-order wait: the policy aborts T1 at block
                    # time, which frees R2 and grants T2's wait.
                    with pytest.raises(TransactionAborted):
                        await client.acquire(
                            1, "R1", LockMode.X, wait=False
                        )
                    stats = await client.stats()
                    assert stats["policy"] == "nowait"
                    assert stats["policy_info"]["nowait_aborts"] == 1
                    assert stats["victims_aborted"] == 1
                    # No detector pass was charged for the abort.
                    assert stats["detector_passes"] == 0
                finally:
                    await client.close()

            run(scenario())
            server = loopback.server
            assert metric(
                server, "repro_policy_aborts_total", policy="nowait"
            ) == 1.0
            # The nowait lane runs no background detector task.
            assert server.core.policy.wants_periodic is False

    def test_hello_advertises_policy(self):
        with LoopbackServer(period=60.0, policy="nowait") as loopback:
            async def scenario():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port
                )
                try:
                    assert client.server_info["policy"] == "nowait"
                finally:
                    await client.close()

            run(scenario())


class TestDefaultPolicyStats:
    def test_periodic_is_advertised_by_default(self):
        with LoopbackServer(period=60.0) as loopback:
            async def scenario():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port
                )
                try:
                    stats = await client.stats()
                    assert stats["policy"] == "periodic"
                    assert stats["policy_info"] == {"name": "periodic"}
                    assert (
                        client.server_info["policy"] == "periodic"
                    )
                finally:
                    await client.close()

            run(scenario())
            assert metric(
                loopback.server, "repro_detection_policy",
                policy="periodic",
            ) == 1.0
