"""Stateful property test: the real lock service under random traffic.

A Hypothesis :class:`RuleBasedStateMachine` drives a live
:class:`~repro.service.loopback.LoopbackServer` through the full client
API — begin, acquire (with immediate timeouts, so queued requests and
the cancel-wait path get exercised without ever blocking the test),
conversions, commit, abort, detection passes and whole-connection
disconnects — while the class invariant re-verifies the server's lock
table and session bookkeeping after **every** rule, serialized with the
writer task via :meth:`LoopbackServer.submit`.

Shrinking works at the rule level: a failing interleaving minimizes to
the shortest rule sequence that still violates an invariant.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.check.oracles import check_service, check_state
from repro.core.errors import TransactionAborted
from repro.core.modes import LockMode
from repro.service.client import RemoteLockManager
from repro.service.loopback import LoopbackServer
from repro.service.protocol import ServiceError

RIDS = ("R1", "R2", "R3")
MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)
CLIENTS = 2
MAX_TXNS = 6


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.loopback = None
        self.clients = []
        self.txns = {}  # tid -> client slot

    @initialize(
        shards=st.sampled_from((1, 4)),
        policy=st.sampled_from(("periodic", "nowait")),
        wire=st.sampled_from(("json", "binary")),
    )
    def start(self, shards, policy, wire):
        """The server's flags and the clients' codec, drawn per run."""
        self.loopback = LoopbackServer(
            period=None, shards=shards, policy=policy
        ).start()
        self.wire = wire
        self.clients = [self._connect() for _ in range(CLIENTS)]

    def _connect(self) -> RemoteLockManager:
        return RemoteLockManager(
            self.loopback.host, self.loopback.port, wire=self.wire
        )

    def _pick(self, index: int) -> int:
        tids = sorted(self.txns)
        return tids[index % len(tids)]

    def _drop(self, tid: int) -> None:
        self.txns.pop(tid, None)

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: len(self.txns) < MAX_TXNS)
    @rule(slot=st.integers(min_value=0, max_value=CLIENTS - 1))
    def begin(self, slot):
        tid = self.clients[slot].begin()
        self.txns[tid] = slot

    @precondition(lambda self: self.txns)
    @rule(
        index=st.integers(min_value=0, max_value=MAX_TXNS - 1),
        rid=st.sampled_from(RIDS),
        mode=st.sampled_from(MODES),
    )
    def acquire(self, index, rid, mode):
        """Lock or convert; timeout=0 parks and immediately cancels, so
        a denied request stays queued without blocking the test."""
        tid = self._pick(index)
        client = self.clients[self.txns[tid]]
        try:
            client.acquire(tid, rid, mode, timeout=0.0)
        except TransactionAborted:
            client.abort(tid)  # acknowledge the victim choice
            self._drop(tid)

    @precondition(lambda self: self.txns)
    @rule(index=st.integers(min_value=0, max_value=MAX_TXNS - 1))
    def commit(self, index):
        tid = self._pick(index)
        client = self.clients[self.txns[tid]]
        try:
            client.commit(tid)
        except (TransactionAborted, ServiceError):
            client.abort(tid)
        self._drop(tid)

    @precondition(lambda self: self.txns)
    @rule(index=st.integers(min_value=0, max_value=MAX_TXNS - 1))
    def abort(self, index):
        tid = self._pick(index)
        self.clients[self.txns[tid]].abort(tid)
        self._drop(tid)

    @rule()
    def detect(self):
        """A periodic pass; afterwards the table must be cycle-free."""
        result = self.clients[0].detect()
        assert not self.clients[0].deadlocked()
        if result.aborted:
            # Victims learn of their abort on their next operation; the
            # model drops them now so rules stop targeting them.
            for tid in result.aborted:
                if tid in self.txns:
                    self.clients[self.txns[tid]].abort(tid)
                    self._drop(tid)

    @rule(slot=st.integers(min_value=0, max_value=CLIENTS - 1))
    def disconnect(self, slot):
        """Drop one connection entirely; the server must sweep every
        transaction the session owned.  Reconnect into the same slot."""
        self.clients[slot].close()
        self.clients[slot] = self._connect()
        for tid in [t for t, s in self.txns.items() if s == slot]:
            self._drop(tid)

    # -- invariants --------------------------------------------------------

    @invariant()
    def server_state_verifies(self):
        """Table invariants, Theorem 1, UPR and session bookkeeping,
        inspected on the writer task (a consistent snapshot)."""
        server = self.loopback.server

        def audit():
            failures = [str(f) for f in check_state(server.core.manager.table)]
            failures += [str(f) for f in check_service(server.core)]
            return failures

        assert self.loopback.submit(audit) == []

    def teardown(self):
        for client in self.clients:
            client.close()
        if self.loopback is not None:
            self.loopback.close()


TestService = ServiceMachine.TestCase
TestService.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
