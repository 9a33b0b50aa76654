"""repro — reproduction of Park (1991/1992), "A Periodic Deadlock
Detection and Resolution Algorithm with a New Graph Model for Sequential
Transaction Processing".

The package implements the paper's H/W-TWBG graph model, the Section-3
scheduling policy (FIFO with lock conversions and the Upgrader
Positioning Rule), the TDR victim-selection principles and the periodic
detection-resolution algorithm, together with every substrate needed to
evaluate them: a strict-2PL lock manager, a transaction layer, a multiple
granularity locking protocol, baseline detectors from the related work,
and a discrete-event transaction-processing simulator.

Quickstart::

    from repro import LockManager, LockMode

    lm = LockManager()
    lm.lock(1, "R1", LockMode.S)
    lm.lock(2, "R2", LockMode.S)
    lm.lock(1, "R2", LockMode.X)     # blocks
    lm.lock(2, "R1", LockMode.X)     # blocks -> deadlock
    result = lm.detect()             # periodic pass resolves it
    print(result.aborted, result.spared)
"""

from .core import (
    CostTable,
    DetectionResult,
    HWTWBG,
    LockMode,
    ResourceState,
    TransactionAborted,
    build_graph,
    compatible,
    convert,
    detect_once,
    parse_resource,
    parse_table,
)
from .lockmgr import LockManager, LockTable

__version__ = "1.0.0"

__all__ = [
    "CostTable",
    "DetectionResult",
    "HWTWBG",
    "LockManager",
    "LockMode",
    "LockTable",
    "ResourceState",
    "TransactionAborted",
    "build_graph",
    "compatible",
    "convert",
    "detect_once",
    "parse_resource",
    "parse_table",
    "__version__",
]
