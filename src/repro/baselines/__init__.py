"""Baseline deadlock-handling schemes from the paper's related work, as
:class:`~repro.policy.base.DetectionPolicy` subclasses the simulator
runs on the same lock core as the paper's own policies.  None of them
is in :data:`repro.policy.POLICIES`: ``serve`` cannot select them."""

from .agrawal import AgrawalPolicy, functional_graph, representative_blocker
from .elmagarmid import ElmagarmidPolicy, build_r_table, build_t_table, chase
from .jiang import JiangPolicy, WaitForMatrix, direct_blockers, wait_for_matrix
from .johnson import circuit_count, elementary_circuits
from .lanes import BatchedPolicy, TimeoutPolicy
from .prevention import WaitDiePolicy, WoundWaitPolicy
from .wfg import (
    WFGPolicy,
    adjacency,
    find_cycle,
    has_deadlock,
    resolve,
    waits_for_edges,
)

__all__ = [
    "AgrawalPolicy",
    "BatchedPolicy",
    "ElmagarmidPolicy",
    "JiangPolicy",
    "TimeoutPolicy",
    "WFGPolicy",
    "WaitDiePolicy",
    "WaitForMatrix",
    "WoundWaitPolicy",
    "adjacency",
    "build_r_table",
    "build_t_table",
    "chase",
    "circuit_count",
    "direct_blockers",
    "elementary_circuits",
    "find_cycle",
    "functional_graph",
    "has_deadlock",
    "representative_blocker",
    "resolve",
    "wait_for_matrix",
    "waits_for_edges",
]
