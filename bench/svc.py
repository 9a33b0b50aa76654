"""The service workloads: a lock server subprocess under a closed loop.

Load shape (all ``svc_*`` workloads).  Closed loop — callers of a lock
service each wait for their reply.  The generator is ONE asyncio
process with 2 connections, each multiplexing 4 logical sequential
transactions (at most one outstanding request per transaction, the
paper's model): multiprogramming level 8, no extra threads.  The server
is one ``python -m repro serve`` subprocess.  A deadlock victim
restarts the *same* program under a fresh tid; a transaction's latency
runs from its first ``begin`` to its final ``commit``, restarts
included.  A program still aborting after 100 restarts, any wait
timeout (5 s) or any ``ServiceError`` counts as failed.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import re
import shutil
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, time as wall_time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.errors import TransactionAborted
from repro.core.serialize import table_to_dict
from repro.service import AsyncLockClient
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal, recover_into
from repro.service.protocol import ServiceError

from . import metrics, workloads
from .spans import SpanRecorder

CONNECTIONS = 2
SLOTS_PER_CONNECTION = 4
WARMUP_SECONDS = 3.0
WAIT_TIMEOUT = 5.0
MAX_RESTARTS = 100
#: Spawn-to-first-reply is taken this many times per run (median).
SETUP_SAMPLES = 5
#: Transactions left open, holding locks, when the durable server is
#: killed.
OPEN_AT_CRASH = 64
#: Equal slices the measured window is cut into (see ``LoadResult``).
SLICES = 20
#: The server's peak RSS is read when it has committed this many
#: transactions since its start (warm-up included), so the figure does
#: not depend on how many more a fast run fits into its window — the
#: manager keeps a cumulative event log.
RSS_AT_COMMITS = 4000
#: The core's pace is sampled this often (seconds) beside the closed
#: loop and beside a spawn — about 1.5% of the core.
PACE_INTERVAL = 0.02

_BANNER = re.compile(r"listening on (?:unix:(\S+)|([0-9.]+):(\d+))")


class CheckFailed(Exception):
    """An output check of the benchmark was violated."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_generator_fits(connections: int) -> None:
    """The generator shares the box with the server: more connections
    (each a source of concurrent work) than cores would measure the
    generator's own queueing, so it refuses to start."""
    cores = os.cpu_count() or 1
    if connections > cores:
        raise CheckFailed(
            "load generator wants {} connections but the machine has {} "
            "cores".format(connections, cores)
        )


# -- the server subprocess -------------------------------------------------


class Server:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, process, log) -> None:
        self.process = process
        self._log = log
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.unix: Optional[str] = None
        #: Spawn to first reply, in reference seconds.
        self.setup_seconds = 0.0

    @classmethod
    async def spawn(cls, flags: Sequence[str], log_name: str) -> "Server":
        """Start a server and wait for its first reply (the ``hello``
        handshake of a throw-away connection)."""
        metrics.OUT_DIR.mkdir(parents=True, exist_ok=True)
        log = open(metrics.OUT_DIR / log_name, "ab")
        pace = metrics.Pace()
        sampler = asyncio.ensure_future(pace.keep_sampling(PACE_INTERVAL))
        started = metrics.mark()
        argv = [sys.executable, "-m", "repro", "serve", *flags]
        if "--unix" not in flags:
            argv += ["--port", "0"]
        process = await asyncio.create_subprocess_exec(
            *argv,
            env=metrics.clean_env(),
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
        )
        metrics.track_child(process.pid)
        server = cls(process, log)
        try:
            banner = await asyncio.wait_for(
                process.stdout.readline(), timeout=60.0
            )
            match = _BANNER.search(banner.decode("utf-8", "replace"))
            if match is None:
                raise CheckFailed(
                    "server did not announce an endpoint: {!r}".format(banner)
                )
            if match.group(1):
                server.unix = match.group(1)
            else:
                server.host, server.port = match.group(2), int(match.group(3))
            probe = await server.connect(heartbeat=False)
            server.setup_seconds = metrics.reference_seconds(
                started, metrics.mark(), pace
            )
            await probe.close()
        except BaseException:
            await server.stop()
            raise
        finally:
            sampler.cancel()
        return server

    async def connect(self, heartbeat: bool = True) -> AsyncLockClient:
        return await AsyncLockClient.connect(
            self.host, self.port, unix=self.unix, wire="json",
            heartbeat=heartbeat,
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, the one holding the table."""
        with open(
            "/proc/{}/status".format(self.process.pid), "r", encoding="utf-8"
        ) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("no VmHWM for pid {}".format(self.process.pid))

    async def stop(self, sig: int = signal.SIGTERM) -> None:
        """Signal the server and wait until it has ended."""
        metrics.untrack_child(self.process.pid)
        if self.process.returncode is None:
            try:
                self.process.send_signal(sig)
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(self.process.wait(), timeout=10.0)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
        self._log.close()


async def measure_setup(flags: Sequence[str], log_name: str) -> List[float]:
    """Spawn-to-first-reply of throw-away servers."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        server = await Server.spawn(flags, log_name)
        samples.append(server.setup_seconds)
        await server.stop()
    return samples


# -- the closed loop -------------------------------------------------------


class TracedClient:
    """``AsyncLockClient``'s locking surface with one span per call.

    Each logical transaction slot owns one; :meth:`open` starts the
    transaction's root span and every call until :meth:`close` is its
    child."""

    def __init__(self, client: AsyncLockClient, recorder: SpanRecorder):
        self._client = client
        self._rec = recorder
        self._trace = 0
        self._root = -1

    def open(self, trace: int) -> None:
        self._trace = trace
        self._root = self._rec.begin("txn", trace)

    def close(self) -> None:
        self._rec.end(self._root)

    async def _span(self, name: str, call):
        span = self._rec.begin(name, self._trace, self._root)
        try:
            return await call
        finally:
            self._rec.end(span)

    def begin(self, tid=None):
        return self._span("service.client.begin", self._client.begin(tid))

    def acquire(self, tid, rid, mode, timeout=None, wait=True):
        return self._span(
            "service.client.acquire",
            self._client.acquire(tid, rid, mode, timeout=timeout, wait=wait),
        )

    def batch(self, ops):
        return self._span("service.client.batch", self._client.batch(ops))

    def commit(self, tid):
        return self._span("service.client.commit", self._client.commit(tid))

    def abort(self, tid):
        return self._span("service.client.abort", self._client.abort(tid))


@dataclass
class Slice:
    """One slice of the measured window."""

    latencies_ms: List[float]
    seconds: float
    #: Share of those seconds the core worked or waited for the run.
    granted: float
    #: Speed of the core meanwhile, as a share of the reference core's.
    speed: float

    @property
    def txn_per_s(self) -> float:
        """Commits per reference second."""
        return len(self.latencies_ms) / (
            self.seconds * self.granted * self.speed
        )

    @property
    def txn_p50_ms(self) -> float:
        """Median latency in reference milliseconds.  The core is
        saturated at multiprogramming level 8, so every transaction in
        flight waits out what others take of the core and slows with
        it: latency stretches as the rate shrinks."""
        return (
            metrics.percentile(self.latencies_ms, 50)
            * self.granted * self.speed
        )


@dataclass
class LoadResult:
    """What one closed-loop run observed (whole run unless noted)."""

    attempted: int = 0
    commits: int = 0
    restarts: int = 0
    failed: int = 0
    #: Transactions that committed inside the measured window.
    window_commits: int = 0
    window_seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: ``perf_counter()`` at which each of those committed.
    commit_times: List[float] = field(default_factory=list)
    #: Both clocks at the ``SLICES + 1`` edges of the window's slices.
    edges: List[metrics.Mark] = field(default_factory=list)
    #: The core's pace through the window (untraced runs only).
    pace: metrics.Pace = field(default_factory=metrics.Pace)
    #: Server ``VmHWM`` at ``RSS_AT_COMMITS`` commits (``None``: the run
    #: never got that far, or was not asked to look).
    rss_mb: Optional[float] = None
    failures: List[str] = field(default_factory=list)

    @property
    def txn_per_s(self) -> float:
        return self.window_commits / self.window_seconds

    def slices(self) -> List[Slice]:
        """The window cut at ``edges``: the transactions that committed
        in each slice, how much of it the run was granted and how
        fast the core ran.  A
        metric reported as the median over slices shrugs off a burst of
        outside interference that a whole-window figure would absorb;
        slices in which nothing committed are left out."""
        walls = [wall for wall, _ in self.edges]
        cut: List[List[float]] = [[] for _ in walls[1:]]
        for latency, when in zip(self.latencies_ms, self.commit_times):
            index = bisect.bisect_right(walls, when) - 1
            if 0 <= index < len(cut):
                cut[index].append(latency)
        return [
            Slice(
                latencies,
                end[0] - start[0],
                metrics.granted_share(start, end),
                self.pace.speed(start[0], end[0]),
            )
            for latencies, start, end in zip(cut, self.edges, self.edges[1:])
            if latencies
        ]

    def absorb(self, other: "LoadResult") -> None:
        """Add another window of the same run."""
        self.attempted += other.attempted
        self.commits += other.commits
        self.restarts += other.restarts
        self.failed += other.failed
        self.window_commits += other.window_commits
        self.latencies_ms.extend(other.latencies_ms)
        self.window_seconds += other.window_seconds
        self.failures.extend(other.failures)


async def run_ops(client, program, next_tid) -> None:
    """One frame per op: begin, each lock, commit."""
    tid = await client.begin()
    try:
        for rid, mode in program:
            if not await client.acquire(tid, rid, mode, timeout=WAIT_TIMEOUT):
                raise ServiceError("wait-timeout", "{} on {}".format(tid, rid))
        await client.commit(tid)
    except (TransactionAborted, ServiceError):
        await _abort_quietly(client, tid)
        raise


async def run_batch(client, program, next_tid) -> None:
    """``begin`` plus every lock in ONE ``batch`` frame; a blocked
    sub-op falls back to a waiting ``acquire`` (same queue position),
    then ``commit`` — two round trips when nothing blocks."""
    tid = next_tid()
    ops = [{"op": "begin", "tid": tid}]
    ops.extend(
        {"op": "lock", "tid": tid, "rid": rid, "mode": mode}
        for rid, mode in program
    )
    try:
        results = await client.batch(ops)
        for (rid, mode), result in zip(program, results[1:]):
            if not result.get("ok"):
                detail = result.get("error") or {}
                raise ServiceError(
                    str(detail.get("code")), str(detail.get("message"))
                )
            status = result.get("status")
            if status == "aborted":
                raise TransactionAborted(tid)
            if status == "blocked" and not await client.acquire(
                tid, rid, mode, timeout=WAIT_TIMEOUT
            ):
                raise ServiceError("wait-timeout", "{} on {}".format(tid, rid))
        await client.commit(tid)
    except (TransactionAborted, ServiceError):
        await _abort_quietly(client, tid)
        raise


async def _abort_quietly(client, tid: int) -> None:
    """Release a failed or victimized transaction's server-side state."""
    try:
        await client.abort(tid)
    except (ServiceError, ConnectionError, OSError):
        pass


async def closed_loop(
    clients: Sequence[AsyncLockClient],
    programs: Callable[[int], Iterator[workloads.Program]],
    batch: bool,
    warmup: float,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
    tid_base: int = 0,
    peak_rss_mb: Optional[Callable[[], float]] = None,
) -> LoadResult:
    """Drive the closed loop for ``warmup + seconds`` and drain.

    With ``peak_rss_mb`` (the untraced runs) the window's slice edges,
    the core's pace and the server's RSS at ``RSS_AT_COMMITS`` are
    recorded as well."""
    check_generator_fits(len(clients))
    result = LoadResult(window_seconds=seconds)
    run_one = run_batch if batch else run_ops
    window_start = perf_counter() + warmup
    window_end = window_start + seconds
    traces = iter(range(1, 1 << 62))

    async def slot(client, stream: int) -> None:
        source = programs(stream)
        # Batch frames carry client-chosen tids; each slot draws from
        # its own range so no two slots ever collide.
        tids = iter(range(tid_base + (stream + 1) * 10_000_000, 1 << 62))
        handle = (
            TracedClient(client, recorder) if recorder is not None else client
        )
        while perf_counter() < window_end:
            program = next(source)
            result.attempted += 1
            if recorder is not None:
                handle.open(next(traces))
            started = perf_counter()
            committed = False
            try:
                for _ in range(MAX_RESTARTS + 1):
                    try:
                        await run_one(handle, program, tids.__next__)
                        committed = True
                        break
                    except TransactionAborted:
                        result.restarts += 1
                else:
                    result.failures.append("restart limit")
            except (ServiceError, ConnectionError, OSError) as exc:
                result.failures.append(repr(exc))
            finished = perf_counter()
            if recorder is not None:
                handle.close()
            if not committed:
                result.failed += 1
                continue
            result.commits += 1
            if result.commits == RSS_AT_COMMITS and peak_rss_mb is not None:
                result.rss_mb = peak_rss_mb()
            if window_start <= finished <= window_end:
                result.window_commits += 1
                result.latencies_ms.append((finished - started) * 1000.0)
                result.commit_times.append(finished)

    async def mark_edges() -> None:
        for index in range(SLICES + 1):
            due = window_start + seconds * index / SLICES
            await asyncio.sleep(max(due - perf_counter(), 0.0))
            result.edges.append(metrics.mark())

    tasks = [
        asyncio.ensure_future(
            slot(client, index * SLOTS_PER_CONNECTION + lane)
        )
        for index, client in enumerate(clients)
        for lane in range(SLOTS_PER_CONNECTION)
    ]
    if peak_rss_mb is None:
        await asyncio.gather(*tasks)
        return result
    tasks.append(asyncio.ensure_future(mark_edges()))
    sampler = asyncio.ensure_future(result.pace.keep_sampling(PACE_INTERVAL))
    try:
        await asyncio.gather(*tasks)
    finally:
        sampler.cancel()
    return result


# -- one service run -------------------------------------------------------


@dataclass
class ServiceRun:
    """Everything one ``svc_*`` run measured."""

    load: LoadResult
    setup_samples: List[float]
    rss_mb: float
    stats: Dict[str, object]
    server_flags: List[str]
    journal_bytes: int = 0
    recover_seconds: float = 0.0
    recovered_resources: int = 0
    #: Closed loop repeated with spans on (traced runs only).
    traced: Optional[LoadResult] = None


async def run_service(
    name: str,
    flags: Sequence[str],
    programs: Callable[[int], Iterator[workloads.Program]],
    batch: bool,
    seconds: float,
    journal: bool = False,
    recorder: Optional[SpanRecorder] = None,
    open_programs: Optional[Iterator[workloads.Program]] = None,
) -> ServiceRun:
    """Spawn the server, run the closed loop, check its outputs.

    With ``recorder`` the measured window alternates between spans off
    (``load``) and spans on (``traced``)."""
    flags = list(flags)
    warmup = WARMUP_SECONDS
    journal_dir: Optional[Path] = None
    if journal:
        journal_dir = metrics.OUT_DIR / "journal-{}".format(os.getpid())
        shutil.rmtree(journal_dir, ignore_errors=True)
        journal_dir.mkdir(parents=True)
        flags += [
            "--journal", str(journal_dir / "j.jsonl"),
            "--journal-fsync", "batch",
        ]
    log_name = "server-{}.log".format(name)
    try:
        probe_flags = [
            flag.replace("j.jsonl", "probe.jsonl") for flag in flags
        ]
        setup_samples = await measure_setup(probe_flags, log_name)
        server = await Server.spawn(flags, log_name)
        setup_samples.append(server.setup_seconds)
        clients: List[AsyncLockClient] = []
        try:
            for _ in range(CONNECTIONS):
                clients.append(await server.connect())
            if recorder is None:
                load = await closed_loop(
                    clients, programs, batch, warmup, seconds,
                    peak_rss_mb=server.peak_rss_mb,
                )
                traced = None
            else:
                # Spans off and on in alternating quarters, so drift
                # over the run (a growing event log, a warming disk)
                # lands on both sides of the overhead comparison.
                load, traced = LoadResult(), LoadResult()
                for quarter in range(4):
                    part = await closed_loop(
                        clients, programs, batch,
                        warmup if quarter == 0 else 0.0, seconds / 4.0,
                        recorder=recorder if quarter % 2 else None,
                        tid_base=quarter << 40,
                    )
                    (traced if quarter % 2 else load).absorb(part)
            admin = clients[0]
            stats = await admin.stats()
            commits = load.commits + (traced.commits if traced else 0)
            require(
                stats["commits"] == commits,
                "server counted {} commits, clients {}".format(
                    stats["commits"], commits
                ),
            )
            require(
                stats["protocol_errors"] == 0,
                "{} protocol errors".format(stats["protocol_errors"]),
            )
            dump = await admin.dump()
            require(
                not dump["table"]["resources"],
                "lock table not empty after the run:\n" + dump["text"],
            )
            run = ServiceRun(
                load=load,
                setup_samples=setup_samples,
                rss_mb=load.rss_mb or server.peak_rss_mb(),
                stats=stats,
                server_flags=flags,
                traced=traced,
            )
            if journal:
                await _crash_and_recover(
                    run, server, clients, journal_dir / "j.jsonl",
                    open_programs,
                )
        finally:
            for client in clients:
                try:
                    await client.close()
                except (ConnectionError, OSError):
                    pass
            await server.stop()
    finally:
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
    return run


async def _crash_and_recover(
    run: ServiceRun,
    server: Server,
    clients: Sequence[AsyncLockClient],
    journal_path: Path,
    open_programs: Iterator[workloads.Program],
) -> None:
    """The durability check: leave transactions open, dump, SIGKILL the
    server, rebuild a fresh core from the journal file alone and require
    the recovered table to equal the dump.

    Every reply was preceded by its group commit (flush policy
    ``batch``: one write+fsync per writer pass), so each acknowledged
    lock must be in the file."""
    for index in range(OPEN_AT_CRASH):
        client = clients[index % len(clients)]
        tid = await client.begin()
        for rid, mode in next(open_programs):
            # A blocked request stays queued (and journaled); the
            # sequential model allows nothing further from this
            # transaction.
            if not await client.acquire(tid, rid, mode, wait=False):
                break
    dump = await clients[0].dump()
    dumped_at = wall_time()
    require(
        len(dump["table"]["resources"]) > OPEN_AT_CRASH,
        "open transactions hold too few locks for a durability check",
    )
    stats = await clients[0].stats()
    await server.stop(signal.SIGKILL)
    run.journal_bytes = journal_path.stat().st_size
    run.stats = dict(run.stats, journal_records=stats["journal_records"],
                     journal_flushes=stats["journal_flushes"])

    started = perf_counter()
    with open(journal_path, "r", encoding="utf-8") as handle:
        journal = SessionJournal.from_text(handle.read())
    core = ServiceCore(shards=1, policy="periodic")
    # Leases are judged as of the dump, so every session open then is
    # still honored and keeps its locks.
    report = recover_into(core, journal, now=dumped_at)
    run.recover_seconds = perf_counter() - started
    require(
        report.replay_errors == 0 and journal.corrupt_tail == 0,
        "journal replay: {} errors, {} corrupt lines".format(
            report.replay_errors, journal.corrupt_tail
        ),
    )
    recovered = table_to_dict(core.manager.table)
    require(
        recovered == dump["table"],
        "recovered lock table differs from the pre-crash dump",
    )
    run.recovered_resources = len(recovered["resources"])
