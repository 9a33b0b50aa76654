"""Policies over the wire: the service layer's policy surfaces.

A deadlock staged over the wire and resolved by the server's pass lands
as an incident record with the policy name stamped on it; the nowait
lane aborts at block time without charging a detector pass, while a
rooted check at block time is one; every server advertises its policy
in ``hello``, ``stats`` and the registry.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.obs import parse_exposition
from repro.policy import resolve_policy
from repro.service import LoopbackServer
from repro.service.client import AsyncLockClient
from repro.service.core import ServiceCore


def run(coro):
    return asyncio.run(coro)


def metric(server, name, **labels):
    exposition = parse_exposition(
        server.core.telemetry.registry.render()
    )
    return exposition.get((name, tuple(sorted(labels.items()))), 0.0)


class TestPeriodicService:
    def test_resolved_deadlock_record_is_policy_stamped(self):
        # period=None: the test runs its own passes (a clocked server
        # would resolve the saturating cycle before the ``detect``).
        with LoopbackServer(period=None, policy="periodic") as loopback:
            async def scenario():
                client = await AsyncLockClient.connect(
                    loopback.host, loopback.port
                )
                try:
                    assert await client.acquire(1, "R1", LockMode.X)
                    assert await client.acquire(2, "R2", LockMode.X)
                    assert not await client.acquire(
                        2, "R1", LockMode.X, wait=False
                    )
                    result = await client.detect()
                    assert not result.deadlock_found
                    assert not await client.acquire(
                        1, "R2", LockMode.X, wait=False
                    )
                    result = await client.detect()
                    assert result.deadlock_found
                finally:
                    await client.close()

            run(scenario())
            (record,) = loopback.server.core.incidents.recent(10)
            assert record.get("kind", "deadlock") == "deadlock"
            assert record["policy"] == "periodic"
            assert record["source"] == "service"
            assert record["cycles"]


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


class TestBlockTimePassAccounting:
    """A rooted pass run at block time is a detector pass, whichever
    policy ran it; only a deadlock-free policy's abort is a policy
    abort."""

    @staticmethod
    def embrace(policy):
        core = ServiceCore(policy=policy)
        session = core.open_session()
        for tid in (1, 2):
            core.begin_step(session, tid)
        for tid, rid in ((1, "R1"), (2, "R2"), (1, "R2"), (2, "R1")):
            core.lock_step(session, tid, rid, LockMode.X, wait=False)
        return core

    @pytest.mark.parametrize("policy", ["continuous", "adaptive"])
    def test_rooted_pass_counts_as_a_pass(self, policy):
        resolved = resolve_policy(policy)
        if policy == "adaptive":
            resolved.controller.mode = "continuous"
        core = self.embrace(resolved)
        stats = core.stats
        assert stats.victims_aborted == 1
        assert stats.deadlocks_resolved == 1
        # One rooted check per block: T1 at R2, T2 at R1.
        assert stats.detector_passes == 2
        assert stats.deadlock_passes == 1
        registry = core.telemetry.registry
        assert registry.get(
            "repro_service_deadlock_passes_total"
        ).value == 1
        assert registry.get(
            "repro_policy_aborts_total", {"policy": policy}
        ).value == 0
