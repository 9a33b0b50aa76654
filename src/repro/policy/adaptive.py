"""The adaptive policy: a contention-driven period controller.

Section 5 opens with the trade-off this controller automates: "by
increasing the periodic interval, the cost of deadlock detection
decreases but it will detect deadlocks late".  The right interval
depends on contention, and contention is observable from the detector
telemetry the managers already emit (PR 3): pass duration, cycles
found, the abort-free ratio.  :class:`AdaptiveController` consumes
exactly those signals per pass:

* a pass that **found cycles** halves the period (``shrink``) down to
  ``min_period`` — deadlocks are forming faster than we are looking;
* two consecutive **clean** passes grow the period (``grow``) up to
  ``max_period`` — stop paying for passes that find nothing;
* ``switch_after`` consecutive hot passes on a *single-shard* host
  switch the lane to **continuous** (rooted check per block, zero
  detection latency); the same streak of idle blocks switches back.
  Multi-shard hosts never switch — the rooted check is a whole-graph
  operation — and tune the period only.

Every decision is bounded and observable: the current period, mode,
adjustment and switch counts are in :meth:`AdaptivePolicy.describe`
and surface through the service stats payload, ``repro top`` and the
policy-labeled telemetry series.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .base import DetectionPolicy

#: Controller knob defaults (see docs/POLICIES.md for tuning guidance).
MIN_PERIOD = 0.01
MAX_PERIOD = 5.0
SHRINK = 0.5
GROW = 1.5
SWITCH_AFTER = 3
#: Clean passes before the period starts growing back.
GROW_AFTER = 2


class AdaptiveController:
    """The period/mode state machine (host-agnostic)."""

    def __init__(
        self,
        min_period: float = MIN_PERIOD,
        max_period: float = MAX_PERIOD,
        shrink: float = SHRINK,
        grow: float = GROW,
        switch_after: int = SWITCH_AFTER,
        grow_after: int = GROW_AFTER,
    ) -> None:
        if not (0.0 < min_period <= max_period):
            raise ValueError("need 0 < min_period <= max_period")
        if not (0.0 < shrink < 1.0 < grow):
            raise ValueError("need shrink < 1 < grow")
        self.min_period = min_period
        self.max_period = max_period
        self.shrink = shrink
        self.grow = grow
        self.switch_after = max(1, int(switch_after))
        self.grow_after = max(1, int(grow_after))
        self.period: Optional[float] = None
        self.mode = "periodic"  # "periodic" | "continuous"
        self.hot_streak = 0
        self.idle_streak = 0
        self.adjustments = 0
        self.mode_switches = 0
        self.passes = 0

    def _clamp(self, period: float) -> float:
        return min(self.max_period, max(self.min_period, period))

    def consult(self, default: Optional[float]) -> Optional[float]:
        """The interval to sleep before the next pass (seeds the
        controller with the host's configured period on first use)."""
        if default is None:
            return None
        if self.period is None:
            self.period = self._clamp(default)
        return self.period

    def observe(self, found_cycles: bool, can_continuous: bool) -> None:
        """Fold one pass outcome (or, in continuous mode, one rooted
        check outcome) into the controller."""
        self.passes += 1
        if found_cycles:
            self.hot_streak += 1
            self.idle_streak = 0
        else:
            self.idle_streak += 1
            self.hot_streak = 0
        if self.period is not None:
            if found_cycles:
                tuned = self._clamp(self.period * self.shrink)
            elif self.idle_streak >= self.grow_after:
                tuned = self._clamp(self.period * self.grow)
            else:
                tuned = self.period
            if tuned != self.period:
                self.period = tuned
                self.adjustments += 1
        if (
            self.mode == "periodic"
            and can_continuous
            and self.hot_streak >= self.switch_after
        ):
            self.mode = "continuous"
            self.mode_switches += 1
            self.hot_streak = 0
        elif (
            self.mode == "continuous"
            and self.idle_streak >= self.switch_after
        ):
            self.mode = "periodic"
            self.mode_switches += 1
            self.idle_streak = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "period": self.period,
            "min_period": self.min_period,
            "max_period": self.max_period,
            "adjustments": self.adjustments,
            "mode_switches": self.mode_switches,
            "passes": self.passes,
        }


class AdaptivePolicy(DetectionPolicy):
    """Auto-tune the detection period per manager within bounds, and
    switch periodic⟷continuous under sustained contention (single-shard
    hosts only)."""

    name = "adaptive"

    def __init__(self, controller: Optional[AdaptiveController] = None) -> None:
        self.controller = (
            controller if controller is not None else AdaptiveController()
        )
        self._detector = None
        self._host = None

    def bind(self, host) -> "AdaptivePolicy":
        self._host = host
        return self

    def _can_continuous(self) -> bool:
        return getattr(self._host, "shard_count", 1) == 1

    def on_block(self, host, tid, rid, mode):
        if self.controller.mode != "continuous" or not self._can_continuous():
            return None
        if self._detector is None:
            from ..core.continuous import ContinuousDetector

            table = (
                host.shards[0].table
                if hasattr(host, "shards")
                else host.table
            )
            self._detector = ContinuousDetector(table, host.costs)
        result = self._detector.on_block(tid)
        self.controller.observe(
            result.deadlock_found, can_continuous=True
        )
        return result

    def observe_pass(self, result, duration: float) -> None:
        self.controller.observe(
            result.deadlock_found, can_continuous=self._can_continuous()
        )

    def current_period(self, default):
        return self.controller.consult(default)

    def describe(self):
        info = {"name": self.name}
        info.update(self.controller.describe())
        return info
