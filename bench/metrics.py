"""The benchmark's metric catalog, statistics helpers and fingerprint.

Every name a later issue may quote is declared here once, with its
unit and direction.  ``BENCHMARK.json`` at the repository root lists
the same names (``selftest.py`` checks the two agree).

Two tiers:

* **End-to-end** metrics are what a caller of the lock service sees.
  Each workload reports every one of them on an untraced run
  (``--trace 0``) and each carries a regression bound.
* **Per-layer** metrics come from the traced run (``--trace 1``): the
  layer replay, the traced closed loop, and the workload-specific
  numbers that cannot be measured on all four workloads (see
  ``DEMOTED``).  A per-layer metric reads 0 on a workload whose
  replay never enters that layer.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time, thread_time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: (name, unit, better, bound) — the bound is the share of the
#: parent's median by which the metric may worsen.  The timings carry
#: the largest bound the driver allows: on a quiet host they spread 2
#: to 10% over ten seeds (``baseline.json``), but the driver's host has
#: shown itself several times noisier than this sandbox.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("txn_per_s", "1/s", "higher", 0.25),
    ("txn_p50_ms", "ms", "lower", 0.25),
    ("rss_mb", "MB", "lower", 0.10),
)

#: End-to-end metrics of ISSUE 15 that only one or two workloads can
#: measure (or that are 0 by design), so they cannot be reported by
#: every workload as the driver contract requires — and ``txn_p99_ms``,
#: which did not repeat within 10% over the baseline runs (it sits on
#: the boundary between blocked and unblocked transactions on
#: ``svc_uniform``).  They keep their names and are reported with the
#: per-layer metrics.
DEMOTED: Tuple[Tuple[str, str, str], ...] = (
    ("txn_p99_ms", "ms", "lower"),
    ("restarts_per_commit", "count", "lower"),
    ("failed_share", "share", "lower"),
    ("journal_bytes_per_txn", "B", "lower"),
    ("recover_s", "s", "lower"),
    ("pass_p50_ms", "ms", "lower"),
    ("pass_p90_ms", "ms", "lower"),
    ("clean_pass_p50_ms", "ms", "lower"),
    ("cluster_pass_p50_ms", "ms", "lower"),
    ("abort_free_share", "share", "higher"),
)

#: layer -> ((suffix, unit, better), ...); the full metric name is
#: ``layer + "." + suffix``.
LAYERS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "peel": (("e2e_us_per_txn", "us", "lower"),),
    "request": (("unattributed_share", "share", "lower"),),
    "trace": (("overhead_share", "share", "lower"),),
    "service.server": (
        ("rtt_us", "us", "lower"),
        ("rtt_unix_us", "us", "lower"),
        ("queue_hop_us", "us", "lower"),
        ("self_us_per_txn", "us", "lower"),
    ),
    "service.protocol": (
        ("encode_us_per_txn", "us", "lower"),
        ("decode_us_per_txn", "us", "lower"),
        ("bytes_per_txn", "B", "lower"),
    ),
    "service.wire": (
        ("encode_us_per_txn", "us", "lower"),
        ("decode_us_per_txn", "us", "lower"),
        ("bytes_per_txn", "B", "lower"),
        ("snapshot_roundtrip_ms", "ms", "lower"),
    ),
    "service.loopback": (
        ("hop_us", "us", "lower"),
        ("us_per_txn", "us", "lower"),
        ("run_transaction_us", "us", "lower"),
    ),
    "service.core": (
        ("us_per_txn", "us", "lower"),
        ("self_us_per_txn", "us", "lower"),
        ("lock_step_us", "us", "lower"),
        ("batch_step_us", "us", "lower"),
        ("finish_step_us", "us", "lower"),
        ("detect_step_ms", "ms", "lower"),
    ),
    "obs": (("self_us_per_txn", "us", "lower"),),
    "service.journal": (
        ("append_us", "us", "lower"),
        ("flush_ms", "ms", "lower"),
        ("records_per_txn", "count", "lower"),
        ("bytes_per_record", "B", "lower"),
        ("flushes_per_txn", "count", "lower"),
        ("self_us_per_txn", "us", "lower"),
    ),
    "lockmgr.sharded": (
        ("us_per_txn", "us", "lower"),
        ("self_us_per_txn", "us", "lower"),
        ("s4_us_per_txn", "us", "lower"),
        ("snapshot_ms", "ms", "lower"),
        ("merge_ms", "ms", "lower"),
    ),
    "lockmgr.scheduler": (
        ("us_per_txn", "us", "lower"),
        ("request_us", "us", "lower"),
        ("release_all_us", "us", "lower"),
        ("blocks_per_txn", "count", "lower"),
        ("conversions_per_txn", "count", "lower"),
        ("sweep_grants_per_release", "count", "lower"),
    ),
    "core.serialize": (
        ("to_dict_ms", "ms", "lower"),
        ("from_dict_ms", "ms", "lower"),
        ("snapshot_bytes", "B", "lower"),
    ),
    "cluster.coordinator": (
        ("merge_ms", "ms", "lower"),
        ("resolve_ms", "ms", "lower"),
    ),
    "core.detection": (
        ("detect_once_ms", "ms", "lower"),
        ("edges_examined", "count", "lower"),
        ("cycles_found", "count", "higher"),
        ("tdr1_applied", "count", "lower"),
        ("tdr2_applied", "count", "higher"),
        ("pass_noballast_ms", "ms", "lower"),
    ),
    "core.hw_twbg": (
        ("build_ms", "ms", "lower"),
        ("useful_share", "share", "higher"),
    ),
    "detect": (
        ("unattributed_share", "share", "lower"),
        ("gc_share", "share", "lower"),
    ),
}


def per_layer_catalog() -> List[Tuple[str, str, str]]:
    """Every ``--trace 1`` metric as ``(name, unit, better)``."""
    rows = list(DEMOTED)
    for layer, suffixes in LAYERS.items():
        rows.extend(
            ("{}.{}".format(layer, suffix), unit, better)
            for suffix, unit, better in suffixes
        )
    return rows


def units() -> Dict[str, str]:
    """name -> unit over both tiers."""
    table = {name: unit for name, unit, _, _ in END_TO_END}
    table.update({name: unit for name, unit, _ in per_layer_catalog()})
    return table


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


median = statistics.median


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles that still leaves at least
    ten samples beyond it (50 when the sample is too small for any)."""
    for pct in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# -- outside interference --------------------------------------------------
#
# The machine is a few virtual cores of a shared host, and three things
# the host's other tenants do reach a wall-clock figure:
#
# * Two busy processes spread over two cores finish when the slower
#   core does, so a neighbour busy on either one halves throughput.
#   Every run therefore confines itself — generator, server and
#   in-process replays alike — to ONE core (:func:`pin_to_one_cpu`).
# * The core is taken away — by the hypervisor (``steal`` in
#   ``/proc/stat``) or by another process of this machine.  Intervals
#   are read on a clock that only runs while the core works for the
#   benchmark or waits for it (:func:`mark`, :func:`granted_seconds`):
#   the CPU time of the benchmark's own processes plus the time the
#   core ran no process (idle, or serving interrupts).  On an
#   undisturbed machine that is the wall clock.
# * The core itself runs faster and slower — a busy sibling
#   hyperthread, shared caches, steal the guest is not told about: the
#   CPU time of one fixed computation was seen to drift between 0.21
#   and 0.35 ms from one minute to the next with no steal reported, and
#   closed-loop throughput with it.  So the same fixed computation
#   (:func:`reference_unit`) is timed every few milliseconds beside the
#   measurement (:class:`Pace`) and every end-to-end time is restated
#   in *reference seconds*: seconds of a core that runs the unit in
#   ``REFERENCE_UNIT_SECONDS``.  (Four 22 s closed loops whose
#   wall-clock rates read 537-631 txn/s read 506-515 per reference
#   second.)

#: A slice or round of which the benchmark was granted less than this
#: share measured the host's other tenants, not the program.
MIN_GRANTED = 0.5

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")

#: The core this process confined itself to (``None``: not confined).
_pinned: Optional[int] = None
#: Child processes whose CPU time is the benchmark's too (the server).
_children: List[int] = []


def pin_to_one_cpu() -> Optional[int]:
    """Confine this process, and every child it spawns from now on, to
    the highest-numbered core it may use; returns that core."""
    global _pinned
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    _pinned = cpu
    return cpu


def track_child(pid: int) -> None:
    """Count ``pid``'s CPU time as the benchmark's from now on."""
    _children.append(pid)


def untrack_child(pid: int) -> None:
    if pid in _children:
        _children.remove(pid)


def _child_cpu_seconds(pid: int) -> float:
    """CPU time of every thread of ``pid`` (nanosecond run time from
    the scheduler; 0 once it is gone)."""
    total = 0
    try:
        for task in os.listdir("/proc/{}/task".format(pid)):
            with open("/proc/{}/task/{}/schedstat".format(pid, task)) as handle:
                total += int(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return total / 1e9


def _core_unclaimed_seconds() -> float:
    """Seconds since boot the pinned core ran no process at all: it sat
    idle (``idle``, ``iowait`` — nobody wanted it, so the benchmark was
    waiting for a reply, a timer or the disk) or served interrupts
    (``irq``, ``softirq`` — loopback and disk completions, the
    benchmark's own traffic)."""
    with open("/proc/stat", "r", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == "cpu{}".format(_pinned):
                return sum(map(int, fields[4:8])) / _TICKS_PER_SECOND
    raise OSError("no cpu{} in /proc/stat".format(_pinned))


#: One reading of both clocks: ``(perf_counter(), granted clock)``.
Mark = Tuple[float, float]


def mark() -> Mark:
    """Read the wall clock and the granted clock: CPU seconds this
    process and its tracked children have used plus the seconds their
    core ran no process.  Where the process could not confine itself to one
    core, or ``/proc`` does not say, the granted clock is the wall
    clock."""
    now = perf_counter()
    if _pinned is None:
        return now, now
    try:
        unclaimed = _core_unclaimed_seconds()
    except (OSError, ValueError, IndexError):
        return now, now
    return now, unclaimed + process_time() + sum(map(_child_cpu_seconds, _children))


def granted_seconds(start: Mark, end: Mark) -> float:
    """Seconds between two marks during which the core was ours."""
    return end[1] - start[1]


def granted_share(start: Mark, end: Mark) -> float:
    """Share of the wall time between two marks the core was ours
    (never reported below 0.05: idle time ticks in 10 ms)."""
    wall = end[0] - start[0]
    if wall <= 0.0:
        return 1.0
    return min(1.0, max(0.05, granted_seconds(start, end) / wall))


def granted_enough(samples: Sequence) -> List:
    """``samples`` (slices or rounds, each with a ``granted`` share)
    without those mostly taken by others — unless that leaves fewer
    than three, in which case every sample is kept."""
    kept = [sample for sample in samples if sample.granted >= MIN_GRANTED]
    return kept if len(kept) >= 3 else list(samples)


#: CPU time of :func:`reference_unit` on the core reference seconds are
#: stated for (this sandbox's Xeon @ 2.10GHz with a quiet host).
REFERENCE_UNIT_SECONDS = 0.25e-3
#: Pace samples this close (seconds) outside an interval still speak
#: for it: the bursts taken just before and after a timed call.
PACE_MARGIN = 0.05

_UNIT_FRAME = {
    "v": 1, "id": 12345, "op": "lock", "tid": 987654, "rid": "r1234",
    "mode": "S", "timeout": 5.0,
}


_UNIT_PIPE = socket.socketpair()


def reference_unit() -> float:
    """Run the fixed reference computation and return the CPU time it
    took this thread (preemption by others does not count): 10 lock
    frames through the JSON codec, each sent and received 6 times over
    a socket pair — the interpreter and kernel work a request is made
    of, about two parts kernel to one part interpreter.  (A unit of
    JSON alone followed the closed loop's pace less closely: over
    twelve disturbed runs the rate restated with it spread 3.9%, with
    this mix 2.3%.)"""
    sender, receiver = _UNIT_PIPE
    started = thread_time()
    for index in range(10):
        payload = json.dumps(_UNIT_FRAME).encode("utf-8")
        for _ in range(6):
            sender.send(payload)
            payload = receiver.recv(4096)
        json.loads(payload)
    return thread_time() - started


class Pace:
    """How fast the core runs, from timings of :func:`reference_unit`
    taken beside a measurement."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._units: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._times.append(perf_counter())
            self._units.append(reference_unit())

    async def keep_sampling(self, interval: float) -> None:
        """Sample every ``interval`` seconds until cancelled."""
        while True:
            self.sample()
            await asyncio.sleep(interval)

    def speed(
        self, start: float = float("-inf"), end: float = float("inf")
    ) -> float:
        """Speed of the core between two ``perf_counter()`` readings
        (default: over every sample), as a share of the reference
        core's (every sample taken when none falls in the interval)."""
        low = bisect.bisect_left(self._times, start - PACE_MARGIN)
        high = bisect.bisect_right(self._times, end + PACE_MARGIN)
        units = self._units[low:high] or self._units
        return REFERENCE_UNIT_SECONDS / statistics.fmean(units)


def reference_seconds(start: Mark, end: Mark, pace: Pace) -> float:
    """The time between two marks in reference seconds: what it would
    have read on an undisturbed core of reference speed."""
    return granted_seconds(start, end) * pace.speed(start[0], end[0])


# -- environment -----------------------------------------------------------


def clean_env() -> Dict[str, str]:
    """The environment every measured process runs under: ``REPRO_*``
    stripped (shards/policy/wire are stated per workload, never
    inherited), one fixed string-hash seed (dict layouts, hence speed,
    otherwise differ from process to process) and ``src/`` importable."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def strip_repro_env() -> None:
    """Apply :func:`clean_env`'s stripping to this process (the
    in-process replays resolve the same environment defaults)."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(seed: int, server_flags: Sequence[str]) -> Dict[str, object]:
    """Where and on what a record was measured."""
    loop = asyncio.new_event_loop()
    loop.close()
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "event_loop": type(loop).__name__,
        "commit": _git_commit(),
        "seed": seed,
        "server_flags": list(server_flags),
    }
