"""Worker death and durable rebirth, over real sockets.

Two layers:

* a deterministic regression for the client-side ``worker-down``
  latch — a :class:`ClusterLockManager` that latched a worker must
  un-latch on the first successful reconnect, resuming its journaled
  session by token so registered transactions survive;
* the supervisor's restart policy end to end — ``kill -9`` a worker
  process under load, the supervisor respawns it from its journal on
  the same port, the merged detector snapshot is byte-identical to the
  pre-kill cluster state, and the client heals without re-running any
  lock protocol.
"""

import asyncio
import threading
import time

import pytest

from repro.cluster import ClusterSupervisor, merge_snapshots
from repro.cluster.client import ClusterLockManager
from repro.cluster.coordinator import worker_of
from repro.core.modes import LockMode
from repro.service.protocol import ServiceError
from repro.service.server import LockServer


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def rids_on_distinct_workers(workers: int, count: int = 2):
    found = {}
    i = 0
    while len(found) < count:
        i += 1
        rid = "R{}".format(i)
        index = worker_of(rid, workers)
        if index not in found:
            found[index] = rid
    return list(found.values())


class ServerThread:
    """A LockServer on its own loop thread, so the synchronous
    ClusterLockManager can talk to it from the test thread."""

    def __init__(self, **kwargs):
        self.server = LockServer(**kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._thread.start()

    def _run(self, coro, timeout=15.0):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(
            timeout
        )

    def start(self, host="127.0.0.1", port=0):
        self._run(self.server.start(host, port))
        return self.server.host, self.server.port

    def crash(self):
        self._run(self.server.crash())
        self._stop_loop()

    def close(self):
        self._run(self.server.aclose())
        self._stop_loop()

    def _stop_loop(self):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()


class TestUnlatchOnReconnect:
    def test_latched_worker_heals_after_durable_restart(self, tmp_path):
        journal = str(tmp_path / "w0.jsonl")
        first = ServerThread(period=None, journal_path=journal)
        host, port = first.start()
        manager = ClusterLockManager([(host, port)])
        try:
            manager.begin(1)
            assert manager.acquire(1, "R1", LockMode.X, timeout=5.0)

            first.crash()
            # The first call after the crash latches the worker.
            with pytest.raises(ServiceError) as caught:
                manager.holding(1)
            assert caught.value.code == "worker-down"
            assert manager.down_workers() == [0]

            # While the worker is still down the latch answers fast,
            # but each call retries exactly one redial.
            with pytest.raises(ServiceError) as caught:
                manager.holding(1)
            assert caught.value.code == "worker-down"

            second = ServerThread(period=None, journal_path=journal)
            second.start(host=host, port=port)
            try:
                # The next call un-latches by resuming the journaled
                # session: same sid, same token, same transactions.
                assert manager.holding(1) == {"R1": LockMode.X}
                assert manager.down_workers() == []
                # The registration marks survived with the session: the
                # transaction keeps operating without a fresh begin.
                assert manager.acquire(1, "R2", LockMode.S, timeout=5.0)
                manager.commit(1)
            finally:
                second.close()
        finally:
            manager.close()


class TestSupervisorRestart:
    def test_killed_worker_restarts_from_journal_under_load(self, tmp_path):
        supervisor = ClusterSupervisor(
            workers=2, period=None, journal_dir=str(tmp_path)
        )
        with supervisor:
            manager = ClusterLockManager(supervisor.endpoints())
            try:
                a, b = rids_on_distinct_workers(2)
                manager.begin(1)
                manager.begin(2)
                assert manager.acquire(1, a, LockMode.X, timeout=5.0)
                assert manager.acquire(2, b, LockMode.X, timeout=5.0)
                # A queued waiter makes the doomed worker's slice
                # non-trivial: grant + blocked conversion queue.
                assert not manager.acquire(2, a, LockMode.S, timeout=0.3)

                def merged():
                    payloads = supervisor._transport.snapshot_all()
                    if any(payload is None for payload in payloads):
                        return None
                    table, unreachable, _ = merge_snapshots(payloads)
                    assert unreachable == []
                    return [str(state) for state in table.values()]

                before = merged()
                assert before is not None

                doomed = worker_of(a, 2)
                old_port = supervisor._handles[doomed].port
                supervisor._handles[doomed].process.kill()
                assert wait_until(
                    lambda: supervisor._handles[doomed].restarts == 1
                    and supervisor._handles[doomed].alive
                )
                # Same slot, same port, rebuilt from the same journal.
                assert supervisor._handles[doomed].port == old_port
                assert (
                    supervisor.registry.get(
                        "repro_cluster_worker_restarts_total"
                    ).value
                    >= 1
                )

                # The merged detector snapshot is byte-identical to the
                # uninterrupted cluster state: grants, queue order and
                # the cluster-wide first-lock sequence all survived.
                assert wait_until(lambda: merged() == before)

                # The client heals: at most one worker-down error, then
                # resumed-by-token operation on the reborn worker.
                try:
                    holding = manager.holding(1)
                except ServiceError as exc:
                    assert exc.code == "worker-down"
                    holding = manager.holding(1)
                assert holding == {a: LockMode.X}
                assert manager.down_workers() == []

                # A detector pass over the healed cluster sees every
                # worker and (correctly) no deadlock.
                result = supervisor.detect()
                assert result.cluster.unreachable_workers == []
                assert not result.deadlock_found

                manager.commit(1)
                # T2's queued wait is grantable now; retrying resumes it.
                assert manager.acquire(2, a, LockMode.S, timeout=5.0)
                manager.commit(2)
            finally:
                manager.close()
