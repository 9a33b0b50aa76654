"""The :class:`DetectionPolicy` protocol — one object owning every
detection *decision* a lock manager makes.

The paper's Section-5 machinery answers *how* to find and resolve a
cycle; everything around it is policy: **when** to run a pass (the
periodic interval) and **what** to do when a request blocks (wait
quietly, run a rooted check, refuse the wait).  Before this layer
those decisions were hard-wired in each host — the lock core's
``lock``/``detect``, the service's detector task and the cluster
coordinator's pass loop.  Now each of those hosts consults one policy
object through the hooks below, and the paper's periodic scheme is
simply the default policy
(:class:`~repro.policy.periodic.PeriodicPolicy`), reproduced
bit-for-bit.

Hook contract
-------------

``on_block(host, tid, rid, mode)``
    Called by the host's ``lock`` path right after a request blocked,
    with the owning shard's mutex held.  Return a
    :class:`~repro.core.detection.DetectionResult` for the host to
    absorb — the continuous companion returns its rooted check, the
    nowait lane returns the requester's own abort — or ``None`` to let
    the request wait (the periodic default).

``observe_pass(result, duration)``
    Called after every periodic pass with its result and wall-clock
    duration — the adaptive controller's telemetry diet.

``current_period(default)``
    Consulted by every detector loop (facade thread, asyncio server
    task, cluster supervisor) before each sleep; adaptive policies
    return their tuned interval, everyone else echoes ``default``.

``detect(host)``
    One detection-resolution pass, as the host's ``detect`` runs it:
    by default the shipped Section-5 pass (``host.detection_pass()``).
    A policy that resolves some other way (a baseline's graph, a
    batched flush) overrides it.

``on_tick(host)``
    Called by a clocked driver (the simulator) as time advances;
    prevention schemes revalidate their waits here.

A hook that aborts transactions releases them on the host table itself
and returns them in ``DetectionResult.aborted``, with an
``abort_reason`` that says why.  Two attributes configure the rest:
``allow_tdr2`` (False restricts every resolution to TDR-1 aborts — the
A2 ablation) and ``wait_limit`` (the longest a waiter waits before
giving up; the waiter keeps that clock, as a blocking ``acquire``'s
``timeout`` does).

Policies are **per-host state**: construct a fresh instance per
manager (``resolve_policy`` does).  Hosts with more than one shard may
call ``on_block`` from concurrent threads; stateless decisions
(nowait) are safe, stateful ones (continuous) declare
``continuous = True``, which a host refuses beside ``shards > 1``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class DetectionPolicy:
    """Base policy: wait on block, run passes at the caller's cadence.

    Subclasses override the hooks they use; the defaults reproduce the
    paper's periodic scheme exactly (no block-time action, fixed
    period).
    """

    #: Registry / CLI / telemetry label.
    name = "abstract"
    #: True when the policy runs a rooted whole-graph check on every
    #: block (the continuous companion) — needs ``shards=1``.
    continuous = False
    #: True when the policy guarantees an acyclic H/W-TWBG by
    #: construction (the nowait lane) — detector passes are pure cost.
    deadlock_free = False
    #: False disables background detector loops entirely (the nowait
    #: lane's "zero detector cost" claim); explicit ``detect()`` calls
    #: still work and find nothing.
    wants_periodic = True
    #: False: every cycle is resolved by TDR-1 (abort) alone.
    allow_tdr2 = True
    #: Time units after which a waiter aborts itself (None: never).
    wait_limit = None

    def bind(self, host) -> "DetectionPolicy":
        """Attach to the owning manager/core; returns self.  Called
        once, before any other hook."""
        return self

    def on_block(self, host, tid: int, rid: str, mode):
        """Act on a blocked request; see the module docstring."""
        return None

    def observe_pass(self, result, duration: float) -> None:
        """Consume one pass's outcome (adaptive policies)."""
        return None

    def current_period(self, default: Optional[float]) -> Optional[float]:
        """The interval a detector loop should sleep before its next
        pass; ``default`` is the host's configured period."""
        return default

    def detect(self, host):
        """One detection-resolution pass over ``host``."""
        return host.detection_pass().run()

    def on_tick(self, host):
        """React to the driver's clock; a result when it aborted."""
        return None

    def describe(self) -> Dict[str, Any]:
        """Wire-visible policy state for stats payloads and ``top``."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<{} {!r}>".format(type(self).__name__, self.name)
