"""The cluster supervisor: spawn, monitor, reap, detect.

:class:`ClusterSupervisor` owns a worker fleet end to end:

* **Spawn** — N :func:`~repro.cluster.worker.worker_main` processes,
  each a ``LockServer`` bound to its own port (ephemeral ports are read
  back through a ready queue), all sharing one cross-process first-lock
  sequence counter.
* **Monitor** — a reaper thread polls the fleet; a worker that dies is
  ``join``-ed (no zombies), logged with its exit code on the
  ``repro.cluster`` logger and counted in
  ``repro_cluster_worker_deaths_total``.  With ``journal_dir`` set the
  supervisor *restarts* the dead worker on its previous port: the
  replacement replays ``journal_dir/worker-<i>.jsonl`` and rebuilds its
  table slice (journaled cluster-wide sequence numbers keep the merged
  order intact), counted in ``repro_cluster_worker_restarts_total`` and
  bounded by ``max_worker_restarts`` per worker.  Without a journal
  directory the partition stays unavailable until an operator restarts
  the cluster — see ``docs/CLUSTER.md`` and ``docs/DURABILITY.md`` for
  the failure model.
* **Detect** — a detector thread runs the coordinator's
  snapshot-merge-detect-resolve pass (:func:`run_cluster_pass`) every
  ``period`` seconds over a :class:`WireClusterTransport`, feeding the
  supervisor's metrics registry (``repro_cluster_*``).

The supervisor is the process that *owns* the cost table the detector
selects victims with (workers never run detection), mirroring the
single-process servers where detector and cost table live together.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.victim import CostTable
from ..obs.cluster import (
    MetricsExporter,
    merge_metrics_snapshots,
    render_snapshot,
)
from ..obs.incidents import IncidentLog
from ..obs.metrics import MetricsRegistry
from .client import WireClusterTransport
from .coordinator import ClusterDetection, run_cluster_pass
from .worker import worker_main

LOGGER_NAME = "repro.cluster"


@dataclass
class WorkerHandle:
    """One spawned worker process and its bound address."""

    index: int
    process: multiprocessing.Process
    host: Optional[str] = None
    port: Optional[int] = None
    reaped: bool = False
    #: Times this slot was respawned from its journal after a death.
    restarts: int = 0

    @property
    def alive(self) -> bool:
        return not self.reaped and self.process.exitcode is None


class ClusterSupervisor:
    """Spawns and runs a worker fleet (see module docstring).

    ``period=None`` disables the background detector thread — callers
    then drive :meth:`detect` explicitly (tests, the explorer-style
    harnesses).  ``start_method`` picks the multiprocessing start
    method; the default prefers ``fork`` where available (fast spawns,
    and the supervisor starts its own threads only *after* forking)
    and falls back to ``spawn``.
    """

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        base_port: int = 0,
        period: Optional[float] = 0.05,
        lease: float = 5.0,
        costs: Optional[Dict[int, float]] = None,
        shards_per_worker: int = 1,
        worker_period: Optional[float] = None,
        start_method: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        journal_dir: Optional[str] = None,
        max_worker_restarts: int = 3,
        incident_log: Optional[str] = None,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
        policy="periodic",
    ) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        from ..policy import resolve_policy

        self.workers = workers
        #: The coordinator-side detection policy: pre-pass over the
        #: merged cluster snapshot, pass observation (adaptive period
        #: tuning) and the detector loop's interval.  A multi-worker
        #: fleet never switches to continuous (the rooted check is a
        #: whole-graph operation); :attr:`shard_count` tells the
        #: adaptive controller so.
        self.policy = resolve_policy(policy).bind(self)
        self.host = host
        self.base_port = base_port
        self.period = period
        self.lease = lease
        self.shards_per_worker = shards_per_worker
        self.worker_period = worker_period
        self.journal_dir = journal_dir
        self.max_worker_restarts = max_worker_restarts
        self.costs = CostTable(dict(costs or {}))
        self._worker_costs = dict(costs or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = logging.getLogger(LOGGER_NAME)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._handles: List[WorkerHandle] = []
        self._counter = None
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._transport: Optional[WireClusterTransport] = None
        self._detect_lock = threading.Lock()
        self.last_detection: Optional[ClusterDetection] = None
        self._started = False
        #: Incident forensics sink: on disk when ``incident_log`` names
        #: a JSON-lines path, an in-memory ring otherwise.
        self.incidents = IncidentLog(path=incident_log)
        #: One aggregated Prometheus scrape point for the whole fleet
        #: (``metrics_port=None`` disables it; ``0`` binds ephemeral —
        #: read :attr:`metrics_port` back after :meth:`start`).
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self._exporter: Optional[MetricsExporter] = None
        self.registry.gauge(
            "repro_cluster_workers",
            help="worker processes this supervisor spawned",
            fn=lambda: float(len(self._handles)),
        )
        self.registry.gauge(
            "repro_cluster_workers_alive",
            help="worker processes currently alive",
            fn=lambda: float(
                sum(1 for handle in self._handles if handle.alive)
            ),
        )
        self.registry.gauge(
            "repro_cluster_incidents_recorded",
            help="deadlock incident records written by this supervisor",
            fn=lambda: float(self.incidents.total),
        )

    # -- lifecycle -------------------------------------------------------

    def start(self, timeout: float = 30.0) -> "ClusterSupervisor":
        """Spawn the fleet, wait for every worker to report its bound
        address, then start the reaper (and detector) threads."""
        if self._started:
            return self
        self._counter = self._ctx.Value("q", 0)
        if self.journal_dir is not None:
            os.makedirs(self.journal_dir, exist_ok=True)
        ready = self._ctx.Queue()
        for index in range(self.workers):
            port = 0 if self.base_port == 0 else self.base_port + index
            self._handles.append(self._spawn(index, port, ready))
        try:
            for _ in range(self.workers):
                index, host, port = ready.get(timeout=timeout)
                self._handles[index].host = host
                self._handles[index].port = port
        except queue.Empty:
            self.close()
            raise RuntimeError(
                "cluster workers failed to report ready within "
                "{}s".format(timeout)
            )
        self._transport = WireClusterTransport(
            self.endpoints(), lease=max(self.lease, 30.0)
        )
        self._started = True
        if self.metrics_port is not None:
            self._exporter = MetricsExporter(
                self.render_metrics,
                host=self.metrics_host,
                port=self.metrics_port,
            ).start()
            self.metrics_port = self._exporter.port
        reaper = threading.Thread(
            target=self._reaper_loop, name="repro-cluster-reaper", daemon=True
        )
        reaper.start()
        self._threads.append(reaper)
        if self.period is not None and self.policy.wants_periodic:
            detector = threading.Thread(
                target=self._detector_loop,
                name="repro-cluster-detector",
                daemon=True,
            )
            detector.start()
            self._threads.append(detector)
        self.log.info(
            "cluster up: %d worker(s) at %s",
            self.workers,
            ", ".join(
                "{}:{}".format(host, port) for host, port in self.endpoints()
            ),
        )
        return self

    def _spawn(self, index: int, port: int, ready) -> WorkerHandle:
        """Start one worker process for slot ``index`` on ``port``."""
        from ..policy import POLICIES

        kwargs = {
            "lease": self.lease,
            "shards": self.shards_per_worker,
            "period": self.worker_period,
            "costs": self._worker_costs,
        }
        # Block-time policies (the nowait lane) act on each worker
        # locally, so workers share the cluster's policy by name.
        # Custom policy *instances* don't cross the process boundary;
        # those workers run the default periodic policy.
        if self.policy.name in POLICIES:
            kwargs["policy"] = self.policy.name
        if self.journal_dir is not None:
            kwargs["journal_path"] = self.journal_path(index)
        process = self._ctx.Process(
            target=worker_main,
            args=(index, self.host, port, ready, self._counter),
            kwargs=kwargs,
            name="repro-cluster-worker-{}".format(index),
            daemon=True,
        )
        process.start()
        return WorkerHandle(index=index, process=process)

    def journal_path(self, index: int) -> str:
        """Where worker ``index`` journals (one file per slot, reused
        across restarts)."""
        return os.path.join(
            self.journal_dir, "worker-{}.jsonl".format(index)
        )

    def endpoints(self) -> List[Tuple[str, int]]:
        """Index-aligned ``(host, port)`` of every worker."""
        return [(handle.host, handle.port) for handle in self._handles]

    @property
    def shard_count(self) -> int:
        """Cluster-wide partition count, as the adaptive policy's
        can-switch-to-continuous probe sees it."""
        return self.workers * max(1, self.shards_per_worker)

    def close(self) -> None:
        """Stop the threads, the transport and every worker process."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        if self._exporter is not None:
            self._exporter.close()
            self._exporter = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        for handle in self._handles:
            if handle.process.exitcode is None:
                handle.process.terminate()
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            handle.reaped = True
        self._started = False

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- monitoring ------------------------------------------------------

    def poll_workers(self) -> List[WorkerHandle]:
        """Reap workers that died since the last poll (join + log +
        count), restarting each from its journal when the supervisor is
        durable; returns the handles reaped by this call."""
        reaped: List[WorkerHandle] = []
        for handle in list(self._handles):
            if handle.reaped or handle.process.exitcode is None:
                continue
            handle.process.join()
            self.log.warning(
                "worker %d (pid %s, %s:%s) exited with code %s; reaped",
                handle.index,
                handle.process.pid,
                handle.host,
                handle.port,
                handle.process.exitcode,
            )
            self.registry.counter(
                "repro_cluster_worker_deaths_total",
                help="worker processes that exited and were reaped",
            ).inc()
            # Count the death before publishing ``reaped``: watchers key
            # off the flag and expect the counter to be visible by then.
            handle.reaped = True
            reaped.append(handle)
            if (
                self.journal_dir is not None
                and self._started
                and not self._stop.is_set()
                and handle.restarts < self.max_worker_restarts
            ):
                self._restart_worker(handle)
            else:
                self.log.warning(
                    "worker %d's partition is unavailable until the "
                    "cluster restarts",
                    handle.index,
                )
        return reaped

    def _restart_worker(self, handle: WorkerHandle) -> Optional[WorkerHandle]:
        """Respawn a dead worker on its previous port; the replacement
        replays its journal and rebuilds the partition's table slice.
        Clients then un-latch by resuming their journaled sessions."""
        ready = self._ctx.Queue()
        replacement = self._spawn(handle.index, handle.port or 0, ready)
        replacement.restarts = handle.restarts + 1
        try:
            _, host, port = ready.get(timeout=30.0)
        except queue.Empty:
            self.log.error(
                "worker %d failed to come back within 30s; giving up on "
                "this restart", handle.index,
            )
            if replacement.process.exitcode is None:
                replacement.process.terminate()
            replacement.process.join(timeout=5.0)
            replacement.reaped = True
            return None
        replacement.host, replacement.port = host, port
        self._handles[handle.index] = replacement
        self.registry.counter(
            "repro_cluster_worker_restarts_total",
            help="dead workers respawned from their journals",
        ).inc()
        self.log.info(
            "worker %d restarted from %s at %s:%s (restart %d of %d)",
            handle.index,
            self.journal_path(handle.index),
            host,
            port,
            replacement.restarts,
            self.max_worker_restarts,
        )
        return replacement

    def dead_workers(self) -> List[int]:
        return [
            handle.index for handle in self._handles if not handle.alive
        ]

    def _reaper_loop(self) -> None:
        while not self._stop.wait(0.2):
            self.poll_workers()

    # -- detection -------------------------------------------------------

    def detect(self) -> ClusterDetection:
        """One cross-process detection-resolution pass, now."""
        with self._detect_lock:
            result = run_cluster_pass(
                self._transport,
                self.workers,
                self.costs,
                incident_sink=self.incidents,
                policy=self.policy,
            )
        self.last_detection = result
        self._absorb(result)
        return result

    # -- the aggregated scrape point --------------------------------------

    def render_metrics(self) -> str:
        """One Prometheus exposition for the whole cluster: every
        worker's ``metrics`` snapshot merged (counters summed,
        histogram buckets merged, gauges labeled ``worker="i"``),
        followed by the supervisor's own ``repro_cluster_*`` series.
        Called per scrape by the :class:`MetricsExporter`."""
        snapshots = (
            self._transport.metrics_all()
            if self._transport is not None
            else []
        )
        merged = merge_metrics_snapshots(snapshots)
        return render_snapshot(merged) + self.registry.render()

    def _detector_loop(self) -> None:
        # The policy may retune the interval between passes (the
        # adaptive controller); consult it every iteration.
        while True:
            interval = self.policy.current_period(self.period)
            if interval is None:
                interval = self.period
            if self._stop.wait(interval):
                return
            try:
                self.detect()
            except Exception:
                if self._stop.is_set():
                    return
                self.log.exception("cluster detection pass failed")

    def _absorb(self, result: ClusterDetection) -> None:
        counters = self.registry.counter
        counters(
            "repro_cluster_detector_passes_total",
            help="cross-process detection passes",
        ).inc()
        counters(
            "repro_cluster_deadlocks_resolved_total",
            help="cycles resolved by the cluster detector",
        ).inc(len(result.resolutions))
        counters(
            "repro_cluster_victims_aborted_total",
            help="victims aborted by the cluster detector",
        ).inc(len(result.aborted))
        counters(
            "repro_cluster_repositionings_total",
            help="TDR-2 repositionings applied across the cluster",
        ).inc(len(result.repositions))
        info = result.cluster
        if info is None:
            return
        counters(
            "repro_cluster_cross_worker_cycles_total",
            help="resolved cycles spanning more than one worker process",
        ).inc(info.cross_worker_cycles)
        counters(
            "repro_cluster_stale_resolutions_total",
            help="victims or repositionings dropped as stale",
        ).inc(info.stale_victims + info.stale_repositions)
        self.registry.histogram(
            "repro_cluster_pass_seconds",
            help="wall-clock seconds per cross-process pass",
        ).observe(info.pass_seconds)
        for index, seconds in enumerate(info.snapshot_seconds):
            self.registry.histogram(
                "repro_cluster_snapshot_seconds",
                labels={"worker": str(index)},
                help="seconds each worker spent serializing its slice",
            ).observe(seconds)
