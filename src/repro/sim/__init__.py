"""Discrete-event transaction-processing simulator and workloads."""

from .engine import Engine
from .metrics import Metrics
from .runner import (
    RunResult,
    aggregate,
    compare_strategies,
    run_once,
    sweep_period,
)
from .system import SimulatedSystem, Terminal
from .workload import (
    Access,
    PRESETS,
    Program,
    WorkloadGenerator,
    WorkloadSpec,
    conversion_heavy,
    five_mode,
    high_contention,
    low_contention,
)

__all__ = [
    "Access",
    "PRESETS",
    "Engine",
    "Metrics",
    "Program",
    "RunResult",
    "SimulatedSystem",
    "Terminal",
    "WorkloadGenerator",
    "WorkloadSpec",
    "aggregate",
    "conversion_heavy",
    "five_mode",
    "high_contention",
    "low_contention",
    "compare_strategies",
    "run_once",
    "sweep_period",
]
