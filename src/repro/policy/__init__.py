"""Pluggable detection/resolution policies.

One :class:`~repro.policy.base.DetectionPolicy` object per lock
manager decides when detection runs and what happens at block time;
the hosts (the lock core, the service, the cluster
coordinator) only run the machinery the policy asks for.  Shipped
policies:

==============  ==========================================================
``periodic``    The paper's Section-5 scheme, unchanged — the default.
``continuous``  The companion algorithm: rooted check per block
                (single shard only).
``nowait``      Deadlock-free ordered-locking lane: out-of-order
                conflicting waits abort the requester; no detector runs.
``adaptive``    Periodic with a contention-driven period controller
                (and a periodic⟷continuous switch on single-shard
                hosts).
==============  ==========================================================

Every host takes the policy as one explicit ``policy=`` argument
(default ``"periodic"``); nothing reads it from the environment.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from .adaptive import AdaptiveController, AdaptivePolicy
from .base import DetectionPolicy
from .nowait import ABORT_REASON, NoWaitPolicy, evaluate_block, wait_is_ordered
from .periodic import ContinuousPolicy, PeriodicPolicy

__all__ = [
    "POLICIES",
    "DetectionPolicy",
    "PeriodicPolicy",
    "ContinuousPolicy",
    "NoWaitPolicy",
    "AdaptivePolicy",
    "AdaptiveController",
    "ABORT_REASON",
    "wait_is_ordered",
    "evaluate_block",
    "resolve_policy",
]

#: Name -> zero-argument policy factory.
POLICIES: Dict[str, Callable[[], DetectionPolicy]] = {
    "periodic": PeriodicPolicy,
    "continuous": ContinuousPolicy,
    "nowait": NoWaitPolicy,
    "adaptive": AdaptivePolicy,
}


def resolve_policy(
    policy: Union[str, DetectionPolicy] = "periodic",
) -> DetectionPolicy:
    """Resolve a ``policy`` argument to a policy instance.

    ``policy`` is a name from :data:`POLICIES` (a fresh instance) or
    an already constructed instance (used as-is — the caller owns its
    lifecycle).  An unknown name raises :class:`ValueError`.
    """
    if isinstance(policy, DetectionPolicy):
        return policy
    name = str(policy).strip().lower()
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            "unknown detection policy {!r} (known: {})".format(
                policy, ", ".join(sorted(POLICIES))
            )
        )
    return factory()
