"""The layer replay: per-layer numbers for the traced run.

The same seeded transactions are replayed at multiprogramming level 1
against successively deeper public entry points — the TCP server, the
loopback/embedded facade, ``ServiceCore`` steps, ``ShardedLockCore``,
the bare scheduler — with every call wrapped in a span.  The cost of a
layer is the level that enters it minus the level below (the *peel*).
Nothing here reaches into the program: every call is one an
application could make.

For the detector path the pieces of a pass (snapshot, merge, Steps 1-3,
serialize, wire, routed resolve) are timed one by one on a freshly
planted round and compared with the whole pass.

Counts that must repeat exactly (blocks, conversions, cycles, TDR
applications) come from :func:`interleave`, a deterministic
single-thread round-robin over ``ServiceCore`` at multiprogramming
level 8.
"""

from __future__ import annotations

import gc
import json
import os
import struct
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.coordinator import (
    apply_resolution_plan,
    merge_snapshots,
    run_cluster_pass,
)
from repro.core.detection import detect_once
from repro.core.hw_twbg import build_graph
from repro.core.modes import parse_mode
from repro.core.serialize import table_from_dict, table_to_dict
from repro.core.victim import CostTable
from repro.lockmgr import scheduler
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.sharded import ShardedLockCore
from repro.obs.instrument import Telemetry
from repro.service import EmbeddedLockManager, LoopbackServer
from repro.service.core import ServiceCore
from repro.service.journal import SessionJournal
from repro.service.protocol import (
    decode_payload,
    encode_frame,
    ok,
    request,
)
from repro.service.wire import (
    HEADER_SIZE,
    JSON_CODEC,
    BinaryCodec,
    decode_binary_payload,
    wire_roundtrip,
)

from . import metrics, svc, workloads
from .metrics import median
from .spans import SpanRecorder

#: Transactions replayed per level.
REPLAY_TXNS = 400
#: No-op round trips per RTT probe.
RTT_PROBES = 400
#: Commits the deterministic interleaver runs to.
INTERLEAVE_COMMITS = 2000
INTERLEAVE_SLOTS = 8
DETECT_EVERY_STEPS = 64

#: Wire v2 header: magic, version, flags, opcode, reserved, id, length
#: (documented in ``repro.service.wire``).
_V2_HEADER = struct.Struct(">2sBBBBII")

Frames = List[Tuple[dict, Optional[str]]]


def _per_txn_us(recorder: SpanRecorder, name: str) -> float:
    return median(recorder.durations_us(name))


# -- level: ServiceCore ----------------------------------------------------


def replay_core(
    programs: Sequence[workloads.Program],
    batch: bool,
    recorder: SpanRecorder,
    label: str,
    telemetry: bool = True,
    journal: Optional[SessionJournal] = None,
    frames: Optional[Frames] = None,
) -> float:
    """Median microseconds per transaction through ``ServiceCore``
    steps, each followed by what the server's writer does after every
    operation: ``pump()`` and, with a journal, the group-commit flush.

    With ``frames`` given, the request and reply bodies a JSON client
    and the server would exchange for these steps are recorded."""
    core = ServiceCore(
        shards=1,
        policy="periodic",
        telemetry=Telemetry(enabled=telemetry),
        journal=journal,
    )
    session = core.open_session()
    root_name = "replay." + label
    # Only the plain replay's calls feed the per-call metrics; the
    # variants (telemetry off, journal on) keep their spans apart.
    suffix = "" if label == "core" else "@" + label
    frame_id = 0

    def step(name: str, trace: int, root: int, fn, *args):
        return recorder.call(
            "service.core." + name + suffix, trace, root, fn, *args
        )

    def after(trace: int, root: int) -> None:
        step("pump", trace, root, core.pump)
        if journal is not None:
            recorder.call(
                "service.journal.flush", trace, root, journal.flush
            )

    def record(op: str, fields: dict, reply: dict) -> None:
        nonlocal frame_id
        frame_id += 1
        frames.append((request(frame_id, op, **fields), None))
        body = ok(frame_id, **reply)
        body["epoch"] = 0
        frames.append((body, op))

    for trace, program in enumerate(programs, start=1):
        root = recorder.begin(root_name, trace)
        if batch:
            tid = trace
            ops = [{"op": "begin", "tid": tid}]
            ops.extend(
                {"op": "lock", "tid": tid, "rid": rid, "mode": mode,
                 "trace": "trace-000000000000"}
                for rid, mode in program
            )
            results = step(
                "batch_step", trace, root, core.batch_step, session, ops
            )
            after(trace, root)
            if frames is not None:
                record("batch", {"ops": ops}, {"results": results})
        else:
            tid = step("begin_step", trace, root, core.begin_step, session)
            after(trace, root)
            if frames is not None:
                record("begin", {}, {"tid": tid})
            for rid, mode in program:
                status, event, _ = step(
                    "lock_step", trace, root,
                    core.lock_step, session, tid, rid, parse_mode(mode),
                )
                after(trace, root)
                svc.require(
                    status == "granted",
                    "replay at MPL 1 blocked on {}".format(rid),
                )
                if frames is not None:
                    record(
                        "lock",
                        {"tid": tid, "rid": rid, "mode": mode, "wait": True,
                         "trace": "trace-000000000000",
                         "timeout": svc.WAIT_TIMEOUT},
                        {"status": status, "event": event},
                    )
        grants = step(
            "finish_step", trace, root, core.finish_step, session, tid, False
        )
        after(trace, root)
        if frames is not None:
            record("commit", {"tid": tid}, {"tid": tid, "grants": grants})
        recorder.end(root)
    svc.require(len(core.manager.table) == 0, "core replay left locks behind")
    return _per_txn_us(recorder, root_name)


# -- level: ShardedLockCore ------------------------------------------------


def replay_sharded(
    programs: Sequence[workloads.Program],
    shards: int,
    recorder: SpanRecorder,
) -> float:
    core = ShardedLockCore(shards=shards, policy="periodic")
    root_name = "replay.sharded{}".format(shards)
    for trace, program in enumerate(programs, start=1):
        root = recorder.begin(root_name, trace)
        for rid, mode in program:
            recorder.call(
                "lockmgr.sharded.lock", trace, root,
                core.lock, trace, rid, parse_mode(mode),
            )
        recorder.call("lockmgr.sharded.finish", trace, root, core.finish, trace)
        recorder.end(root)
    return _per_txn_us(recorder, root_name)


# -- level: the scheduler --------------------------------------------------


def replay_scheduler(
    programs: Sequence[workloads.Program], recorder: SpanRecorder
) -> float:
    table = LockTable()
    for trace, program in enumerate(programs, start=1):
        root = recorder.begin("replay.scheduler", trace)
        for rid, mode in program:
            recorder.call(
                "lockmgr.scheduler.request", trace, root,
                scheduler.request, table, trace, rid, parse_mode(mode),
            )
        recorder.call(
            "lockmgr.scheduler.release_all", trace, root,
            scheduler.release_all, table, trace,
        )
        recorder.end(root)
    return _per_txn_us(recorder, "replay.scheduler")


# -- level: loopback / embedded --------------------------------------------


def replay_loopback(
    programs: Sequence[workloads.Program], recorder: SpanRecorder
) -> Dict[str, float]:
    """The queue/thread hop without a socket or a codec."""
    with LoopbackServer(period=0.02, shards=1, policy="periodic") as server:
        with EmbeddedLockManager(server) as manager:
            for _ in range(RTT_PROBES):
                recorder.call(
                    "service.loopback.hop", 0, -1,
                    server.submit, lambda: None,
                )
            for trace, program in enumerate(programs, start=1):
                root = recorder.begin("replay.embedded", trace)
                tid = manager.begin()
                for rid, mode in program:
                    manager.acquire(tid, rid, mode, timeout=svc.WAIT_TIMEOUT)
                manager.commit(tid)
                recorder.end(root)
            base = len(programs) + 1
            for trace, program in enumerate(programs, start=base):
                tid = manager.begin()
                recorder.call(
                    "replay.run_transaction", trace, -1,
                    manager.run_transaction, tid, program,
                    svc.WAIT_TIMEOUT,
                )
    return {
        "service.loopback.hop_us": _per_txn_us(recorder, "service.loopback.hop"),
        "service.loopback.us_per_txn": _per_txn_us(recorder, "replay.embedded"),
        "service.loopback.run_transaction_us": _per_txn_us(
            recorder, "replay.run_transaction"
        ),
    }


# -- the codecs over recorded frames ---------------------------------------


def codec_costs(frames: Frames, txns: int) -> Dict[str, float]:
    """Encode and decode every recorded frame once with each codec
    (a frame is encoded by one peer and decoded by the other)."""
    out: Dict[str, float] = {}
    for layer, encode, decode in (
        ("service.protocol", _json_encode, _json_decode),
        ("service.wire", BinaryCodec.encode, _binary_decode),
    ):
        encode_seconds = decode_seconds = 0.0
        size = 0
        for message, reply_to in frames:
            started = perf_counter()
            data = encode(message, reply_to)
            middle = perf_counter()
            decoded = decode(data)
            decode_seconds += perf_counter() - middle
            encode_seconds += middle - started
            size += len(data)
            svc.require(
                decoded.get("id") == message.get("id"),
                "{} codec lost a frame id".format(layer),
            )
        out[layer + ".encode_us_per_txn"] = encode_seconds * 1e6 / txns
        out[layer + ".decode_us_per_txn"] = decode_seconds * 1e6 / txns
        out[layer + ".bytes_per_txn"] = size / txns
    return out


def _json_encode(message: dict, reply_to: Optional[str]) -> bytes:
    return encode_frame(message)


def _json_decode(data: bytes) -> dict:
    return decode_payload(data[4:])


def _binary_decode(data: bytes) -> dict:
    _, _, flags, opcode, _, header_id, _ = _V2_HEADER.unpack_from(data)
    return decode_binary_payload(flags, opcode, header_id, data[HEADER_SIZE:])


def _noop_codec_us() -> float:
    """Codec cost of one no-op round trip's two small frames."""
    frames: Frames = [
        (request(1, "holding", tid=0), None),
        (dict(ok(1, holding={}), epoch=0), "holding"),
    ]
    samples = []
    for _ in range(200):
        costs = codec_costs(frames, 1)
        samples.append(
            costs["service.protocol.encode_us_per_txn"]
            + costs["service.protocol.decode_us_per_txn"]
        )
    return median(samples)


# -- the journal on its own ------------------------------------------------


def journal_append_us(path) -> float:
    """Median cost of one ``SessionJournal.append`` (buffering only;
    the flush is the server's to time)."""
    journal = SessionJournal(str(path), fsync="never")
    samples: List[float] = []
    try:
        for index in range(2000):
            started = perf_counter()
            journal.append(
                "lock", sid="S1", tid=index, rid="u{}".format(index),
                mode="S", seq=index,
            )
            samples.append(perf_counter() - started)
    finally:
        journal.close()
        os.unlink(path)
    return median(samples) * 1e6


# -- level: the TCP server -------------------------------------------------


async def replay_server(
    name: str,
    flags: Sequence[str],
    programs: Sequence[workloads.Program],
    batch: bool,
    recorder: SpanRecorder,
    journal_path=None,
) -> Dict[str, float]:
    """The whole request path at MPL 1, plus no-op round trips: a
    ``heartbeat`` (answered by the connection's reader task) and a
    ``holding`` of nothing (through the single-writer queue)."""
    flags = list(flags)
    if journal_path is not None:
        flags += ["--journal", str(journal_path), "--journal-fsync", "batch"]
    out: Dict[str, float] = {}
    server = await svc.Server.spawn(flags, "server-{}.log".format(name))
    try:
        client = await server.connect(heartbeat=False)
        traced = svc.TracedClient(client, recorder)
        run_one = svc.run_batch if batch else svc.run_ops
        tids = iter(range(1 << 50, 1 << 62))
        # A few untimed transactions first: lazy imports and first-use
        # paths on both sides are not what the peel is about.
        for program in programs[:20]:
            traced.open(0)
            await run_one(traced, program, tids.__next__)
            traced.close()
        mark = len(recorder.rows)
        for trace, program in enumerate(programs, start=1):
            traced.open(trace)
            await run_one(traced, program, tids.__next__)
            traced.close()
        out["peel.e2e_us_per_txn"] = median(
            (row[2] - row[1]) / 1000.0
            for row in recorder.rows[mark:]
            if row[0] == "txn"
        )
        for span_name, call in (
            ("service.server.rtt", client.heartbeat),
            ("service.server.queued_rtt", lambda: client.holding(0)),
        ):
            for _ in range(RTT_PROBES):
                span = recorder.begin(span_name, 0)
                await call()
                recorder.end(span)
        out["service.server.rtt_us"] = _per_txn_us(recorder, "service.server.rtt")
        queued = _per_txn_us(recorder, "service.server.queued_rtt")
        out["service.server.queue_hop_us"] = queued - out["service.server.rtt_us"]
        out["_queued_rtt_us"] = queued
        if journal_path is not None:
            stats = await client.stats()
            commits = max(stats["commits"], 1)
            records = max(stats["journal_records"], 1)
            out["service.journal.records_per_txn"] = records / commits
            out["service.journal.flushes_per_txn"] = (
                stats["journal_flushes"] / commits
            )
            out["service.journal.bytes_per_record"] = (
                os.path.getsize(journal_path) / records
            )
            # The server's own clock around each group commit: fsyncs
            # spaced a round trip apart cost more than back-to-back ones,
            # so the in-process replay cannot stand in for this number.
            for histogram in (await client.metrics())["metrics"]["histograms"]:
                if histogram["name"] == "repro_journal_fsync_seconds":
                    out["service.journal.flush_ms"] = (
                        histogram["sum"] / histogram["count"] * 1e3
                    )
        await client.close()
    finally:
        await server.stop()

    socket_path = os.path.relpath(
        metrics.OUT_DIR / "u{}.sock".format(os.getpid()), os.getcwd()
    )
    server = await svc.Server.spawn(
        ["--period", "0.02", "--unix", socket_path],
        "server-{}.log".format(name),
    )
    try:
        client = await server.connect(heartbeat=False)
        for _ in range(RTT_PROBES):
            span = recorder.begin("service.server.rtt_unix", 0)
            await client.heartbeat()
            recorder.end(span)
        await client.close()
    finally:
        await server.stop()
        if os.path.exists(socket_path):
            os.unlink(socket_path)
    out["service.server.rtt_unix_us"] = _per_txn_us(
        recorder, "service.server.rtt_unix"
    )
    return out


# -- deterministic counts --------------------------------------------------


def interleave(
    streams: Sequence[Iterator[workloads.Program]],
    commits: int = INTERLEAVE_COMMITS,
) -> Dict[str, float]:
    """Round-robin ``len(streams)`` sequential transactions over one
    ``ServiceCore``: a blocked request parks, ``detect_step()`` runs
    every 64 steps, a victim restarts its program under a fresh tid.
    No clock, no thread and no socket decides anything, so every count
    repeats exactly for the same seed."""
    core = ServiceCore(shards=1, policy="periodic")
    session = core.open_session(lease=3600.0)

    class Slot:
        def __init__(self, source) -> None:
            self.source = source
            self.program: workloads.Program = []
            self.position = 0
            self.tid = 0
            self.parked = None

        def start(self, fresh_program: bool) -> None:
            if fresh_program:
                self.program = next(self.source)
            self.position = 0
            self.parked = None
            self.tid = core.begin_step(session)

    slots = [Slot(source) for source in streams]
    for slot in slots:
        slot.start(True)
    done = conversions = finishes = sweep_grants = 0
    passes: List[float] = []
    totals = {"edges_examined": 0, "cycles_found": 0,
              "tdr1_applied": 0, "tdr2_applied": 0}
    step = 0
    while done < commits:
        slot = slots[step % len(slots)]
        step += 1
        if step % DETECT_EVERY_STEPS == 0:
            started = perf_counter()
            result = core.detect_step()
            passes.append(perf_counter() - started)
            core.pump()
            for key in totals:
                totals[key] += getattr(result.stats, key)
        if slot.parked is not None:
            status = slot.parked.status
            if status is None:
                continue
            slot.parked = None
            if status == "granted":
                slot.position += 1
        else:
            status = "granted"
        if status == "granted" and slot.position < len(slot.program):
            rid, mode = slot.program[slot.position]
            if any(rid == held for held, _ in slot.program[:slot.position]):
                conversions += 1
            status, _, parked = core.lock_step(
                session, slot.tid, rid, parse_mode(mode)
            )
            core.pump()
            if status == "granted":
                slot.position += 1
                continue
            if status == "parked":
                slot.parked = parked
                continue
        finishes += 1
        if status == "aborted":
            sweep_grants += len(core.finish_step(session, slot.tid, True))
            core.pump()
            slot.start(False)
            continue
        sweep_grants += len(core.finish_step(session, slot.tid, False))
        core.pump()
        done += 1
        slot.start(True)
    stats = core.stats
    svc.require(stats.commits == done, "interleaver lost a commit")
    out = {
        "lockmgr.scheduler.blocks_per_txn": stats.blocks / done,
        "lockmgr.scheduler.conversions_per_txn": conversions / done,
        "lockmgr.scheduler.sweep_grants_per_release": sweep_grants / finishes,
        "service.core.detect_step_ms": median(passes) * 1e3,
    }
    for key, value in totals.items():
        out["core.detection." + key] = float(value)
    return out


# -- the request path, assembled -------------------------------------------


async def request_path_metrics(
    name: str,
    flags: Sequence[str],
    stream,
    batch: bool,
    journal: bool,
    recorder: SpanRecorder,
) -> Dict[str, float]:
    """Every request-path per-layer metric for one ``svc_*`` workload.
    ``stream(i)`` is the workload's i-th seeded program iterator."""
    programs = workloads.take(stream(0), REPLAY_TXNS)
    journal_path = None
    if journal:
        metrics.OUT_DIR.mkdir(parents=True, exist_ok=True)
        journal_path = metrics.OUT_DIR / "peel-{}.jsonl".format(os.getpid())
    try:
        out = await replay_server(
            name, flags, programs, batch, recorder, journal_path
        )
    finally:
        if journal_path is not None and journal_path.exists():
            journal_path.unlink()

    frames: Frames = []
    core_us = replay_core(programs, batch, recorder, "core", frames=frames)
    quiet_us = replay_core(
        programs, batch, recorder, "core_quiet", telemetry=False
    )
    sharded_us = replay_sharded(programs, 1, recorder)
    scheduler_us = replay_scheduler(programs, recorder)
    out["service.core.us_per_txn"] = core_us
    out["obs.self_us_per_txn"] = core_us - quiet_us
    out["service.core.self_us_per_txn"] = quiet_us - sharded_us
    out["lockmgr.sharded.us_per_txn"] = sharded_us
    out["lockmgr.sharded.self_us_per_txn"] = sharded_us - scheduler_us
    out["lockmgr.sharded.s4_us_per_txn"] = replay_sharded(programs, 4, recorder)
    out["lockmgr.scheduler.us_per_txn"] = scheduler_us
    for key, span_name in (
        ("service.core.lock_step_us", "service.core.lock_step"),
        ("service.core.batch_step_us", "service.core.batch_step"),
        ("service.core.finish_step_us", "service.core.finish_step"),
        ("lockmgr.scheduler.request_us", "lockmgr.scheduler.request"),
        ("lockmgr.scheduler.release_all_us", "lockmgr.scheduler.release_all"),
    ):
        samples = recorder.durations_us(span_name)
        out[key] = median(samples) if samples else 0.0
    out.update(codec_costs(frames, len(programs)))
    out.update(replay_loopback(programs, recorder))

    journal_us = 0.0
    if journal:
        scratch = metrics.OUT_DIR / "replay-{}.jsonl".format(os.getpid())
        log = SessionJournal(str(scratch), fsync="batch")
        try:
            with_journal_us = replay_core(
                programs, batch, recorder, "core_journal", journal=log
            )
        finally:
            log.close()
            scratch.unlink()
        out["service.journal.append_us"] = journal_append_us(
            metrics.OUT_DIR / "micro-{}.jsonl".format(os.getpid())
        )
        # Appends as replayed; flushes as the live server timed them.
        replayed_flush_us = sum(
            recorder.durations_us("service.journal.flush")
        ) / len(programs)
        journal_us = (
            with_journal_us - core_us - replayed_flush_us
            + out["service.journal.flushes_per_txn"]
            * out["service.journal.flush_ms"] * 1e3
        )
        out["service.journal.self_us_per_txn"] = journal_us

    # One round trip per frame pair; the no-op probe went through the
    # same socket, reader task and writer queue, so what it cost beyond
    # its own two tiny frames is the server's (and client's) self time.
    round_trips = len(frames) / 2.0 / len(programs)
    server_us = round_trips * (out.pop("_queued_rtt_us") - _noop_codec_us())
    out["service.server.self_us_per_txn"] = server_us
    attributed = (
        server_us
        + out["service.protocol.encode_us_per_txn"]
        + out["service.protocol.decode_us_per_txn"]
        + core_us
        + journal_us
    )
    out["request.unattributed_share"] = (
        1.0 - attributed / out["peel.e2e_us_per_txn"]
    )
    out.update(
        interleave([stream(index) for index in range(INTERLEAVE_SLOTS)])
    )
    return out


# -- the detector path -----------------------------------------------------


class _SpanTransport:
    """The coordinator's two wire rounds over in-process worker cores —
    what ``LocalCluster`` binds internally — with a span around each
    hop.  Payloads, plans and replies round-trip through the JSON wire
    form exactly as they do there."""

    def __init__(self, cluster, recorder: SpanRecorder) -> None:
        self.cores = cluster.cores
        self.rec = recorder
        self.root = -1
        self.payloads: List[dict] = []

    def snapshot_all(self):
        self.payloads = []
        for core in self.cores:
            payload = self.rec.call(
                "lockmgr.sharded.snapshot_payload", 0, self.root,
                core.snapshot_payload,
            )
            self.payloads.append(
                self.rec.call(
                    "service.wire.snapshot_roundtrip", 0, self.root,
                    wire_roundtrip, payload, JSON_CODEC,
                )
            )
        return list(self.payloads)

    def resolve(self, index: int, plan: dict) -> dict:
        span = self.rec.begin("cluster.coordinator.resolve", 0, self.root)
        try:
            plan = wire_roundtrip(plan, JSON_CODEC)
            reply = apply_resolution_plan(self.cores[index], plan)
            return wire_roundtrip(reply, JSON_CODEC)
        finally:
            self.rec.end(span)


def _plant(manager, seed: int, index: int) -> List[int]:
    """Plant round ``index`` without resolving it; returns its tids."""
    tids: List[int] = []
    for plant in workloads.planted_round(seed, index):
        for tid, rid, mode, _ in plant.requests:
            manager.lock(tid, rid, parse_mode(mode))
        tids.extend(plant.tids)
    return tids


def _finish_all(manager, tids: Sequence[int]) -> None:
    for tid in tids:
        manager.finish(tid)


def sharded_pass_layers(
    core: ShardedLockCore,
    seed: int,
    first: int,
    rounds: int,
    recorder: SpanRecorder,
) -> Dict[str, float]:
    """A multi-shard pass piece by piece, on freshly planted rounds:
    snapshot every shard, merge into one table, run Steps 1-3 on the
    copy — then the real ``detect()`` on the same state."""
    useful: List[float] = []
    collector = _CollectorClock()
    for index in range(first, first + rounds):
        tids = _plant(core, seed, index)
        root = recorder.begin("detect.pieces", index)
        states = recorder.call(
            "lockmgr.sharded.snapshot", index, root, core.table.snapshot
        )
        merged = LockTable()
        span = recorder.begin("lockmgr.sharded.merge", index, root)
        for state in states:
            merged.install(state)
        recorder.end(span)
        recorder.call(
            "core.detection.detect_once", index, root,
            detect_once, merged, CostTable(),
        )
        recorder.end(root)
        recorder.call("core.hw_twbg.build", index, -1, build_graph, states)
        useful.append(
            sum(
                1
                for state in states
                if state.queue or any(h.is_blocked for h in state.holders)
            )
            / len(states)
        )
        with collector:
            recorder.call("detect.pass", index, -1, core.detect)
        _finish_all(core, tids)
    pieces = {
        "lockmgr.sharded.snapshot_ms": "lockmgr.sharded.snapshot",
        "lockmgr.sharded.merge_ms": "lockmgr.sharded.merge",
        "core.detection.detect_once_ms": "core.detection.detect_once",
        "core.hw_twbg.build_ms": "core.hw_twbg.build",
    }
    out = {
        key: _per_txn_us(recorder, span_name) / 1000.0
        for key, span_name in pieces.items()
    }
    out["core.hw_twbg.useful_share"] = median(useful)
    whole = _per_txn_us(recorder, "detect.pass") / 1000.0
    out["detect.unattributed_share"] = 1.0 - (
        out["lockmgr.sharded.snapshot_ms"]
        + out["lockmgr.sharded.merge_ms"]
        + out["core.detection.detect_once_ms"]
    ) / whole
    out["detect.gc_share"] = collector.seconds / (
        sum(recorder.durations_us("detect.pass")) / 1e6
    )
    return out


class _CollectorClock:
    """Seconds spent inside the cyclic garbage collector while the
    context is open (``gc.callbacks`` brackets every collection)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started

    def __enter__(self) -> "_CollectorClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)


def cluster_pass_layers(
    cluster,
    seed: int,
    first: int,
    rounds: int,
    recorder: SpanRecorder,
) -> Dict[str, float]:
    """A coordinator pass with a span per hop, then its serialize and
    merge pieces timed on the captured payloads."""
    transport = _SpanTransport(cluster, recorder)
    merge_ms: List[float] = []
    to_dict_ms: List[float] = []
    from_dict_ms: List[float] = []
    sizes: List[float] = []
    for index in range(first, first + rounds):
        tids = _plant(cluster, seed, index)
        transport.root = recorder.begin("cluster.pass", index)
        run_cluster_pass(
            transport, cluster.workers, cluster.costs, policy=cluster.policy
        )
        recorder.end(transport.root)
        _finish_all(cluster, tids)
        started = perf_counter()
        merge_snapshots(transport.payloads)
        merge_ms.append((perf_counter() - started) * 1e3)
        started = perf_counter()
        dumps = [table_to_dict(core.table) for core in cluster.cores]
        to_dict_ms.append((perf_counter() - started) * 1e3)
        started = perf_counter()
        for dump in dumps:
            table_from_dict(dump)
        from_dict_ms.append((perf_counter() - started) * 1e3)
        sizes.append(
            float(sum(len(json.dumps(p)) for p in transport.payloads))
        )

    def per_pass_ms(span_name: str) -> float:
        return sum(recorder.durations_us(span_name)) / 1000.0 / rounds

    return {
        "service.wire.snapshot_roundtrip_ms": per_pass_ms(
            "service.wire.snapshot_roundtrip"
        ),
        "cluster.coordinator.resolve_ms": per_pass_ms(
            "cluster.coordinator.resolve"
        ),
        "cluster.coordinator.merge_ms": median(merge_ms),
        "core.serialize.to_dict_ms": median(to_dict_ms),
        "core.serialize.from_dict_ms": median(from_dict_ms),
        "core.serialize.snapshot_bytes": median(sizes),
    }
