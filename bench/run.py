#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

One run (the form the driver uses)::

    python3 bench/run.py --workload svc_uniform --seed 1 --seconds 20 --trace 0

measures one workload for ``--seconds`` seconds, checks that the
program's outputs are correct, and prints as the last line of standard
output one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports every end-to-end metric of
``BENCHMARK.json`` with tracing off; ``--trace 1`` is the separate
traced run and reports every per-layer metric (spans are written to
``bench/out/trace-<workload>.jsonl``).  A violated check prints the
reason on standard error and exits non-zero without a result.

Without ``--workload`` every workload is run, each in its own process,
untraced and traced, and every metric is printed by name with its
unit.  ``--sets N`` is the agreement mode: N sets of ``--runs`` untraced
runs per workload in alternating order, each metric's spread and
set-to-set difference against its bound; ``--write-baseline`` records
the result in ``bench/baseline.json``.

See ``bench/README.md`` for why each workload exists and how the
per-layer metrics relate to the end-to-end ones.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_HERE = Path(__file__).resolve().parent
# ``bench`` (this package) and ``repro`` (the program, never installed
# in the container) are both imported from the checkout.
for _path in (str(_HERE.parent / "src"), str(_HERE.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import metrics  # noqa: E402

#: name -> why it exists (mirrored into ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "svc_uniform": (
        "8 locks uniform over 4096 rids, one frame per op: almost nothing "
        "blocks, so codec, socket, queue and ServiceCore bookkeeping do "
        "all the work"
    ),
    "svc_hotspot": (
        "Zipf(0.8) over 1024 rids with S->X upgrades: scheduler queues, "
        "sweeps, the periodic pass and TDR resolution decide throughput "
        "and the tail"
    ),
    "svc_batch_durable": (
        "the uniform stream as one batch frame per txn against a "
        "journaled server (fsync batch): the batch path and group commit "
        "carry the load"
    ),
    "detect_ballast": (
        "in-process detector passes over 8 planted deadlocks beside 16384 "
        "idle ballast readers: pass cost against table size, no request "
        "path"
    ),
}

SERVER_FLAGS = ["--period", "0.02"]
DEFAULT_SECONDS = 22
#: A measured window must hold at least this many transactions (a p99
#: needs 1000 samples to leave ten beyond it) / planted rounds.
MIN_SAMPLES = 1000
MIN_ROUNDS = 10
#: Rounds taken apart piece by piece on the traced detector run.
LAYER_ROUNDS = 5


class Result:
    """One run's outcome on its way to the result line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.values: Dict[str, float] = {}
        #: Sample counts, check outcomes and other context (not metrics).
        self.notes: Dict[str, object] = {}
        self.server_flags: List[str] = []


# -- the service workloads -------------------------------------------------


def _service_config(name: str, seed: int) -> dict:
    from bench import workloads

    hotspot = name == "svc_hotspot"
    durable = name == "svc_batch_durable"
    source = workloads.hotspot_programs if hotspot else workloads.uniform_programs
    return {
        "programs": functools.partial(source, seed),
        "batch": durable,
        "journal": durable,
        # Streams 0..7 feed the eight slots; the crash check draws from
        # one no slot uses.
        "open_programs": source(seed, 1000) if durable else None,
    }


def run_service(name: str, seed: int, seconds: float, trace: bool) -> Result:
    from bench import layers, svc
    from bench.spans import SpanRecorder

    config = _service_config(name, seed)
    recorder = SpanRecorder() if trace else None
    run = asyncio.run(
        svc.run_service(
            name, SERVER_FLAGS, seconds=seconds, recorder=recorder, **config
        )
    )
    result = Result()
    result.server_flags = run.server_flags
    loads = [run.load] + ([run.traced] if run.traced else [])
    result.attempted = sum(load.attempted for load in loads)
    result.failed = sum(load.failed for load in loads)
    commits = sum(load.commits for load in loads)
    restarts = sum(load.restarts for load in loads)
    latencies = run.load.latencies_ms
    svc.require(
        len(latencies) >= MIN_SAMPLES,
        "only {} transactions in the window".format(len(latencies)),
    )
    result.notes.update(
        samples=len(latencies),
        tail_supported=metrics.tail_percentile(len(latencies)),
        failures=[f for load in loads for f in load.failures][:5],
        deadlocks_resolved=run.stats["deadlocks_resolved"],
        abort_free_passes=run.stats["abort_free_resolutions"],
        blocks=run.stats["blocks"],
        flush_policy="batch" if config["journal"] else None,
        recovered_resources=run.recovered_resources,
    )
    if not trace:
        # Rate and median latency are medians over the slices of the
        # window, each in reference seconds (``svc.Slice``), not
        # whole-window wall-clock figures; the notes keep the latter and
        # what the host did to it.
        slices = metrics.granted_enough(run.load.slices())
        first, last = run.load.edges[0], run.load.edges[-1]
        result.notes.update(
            slices_used=len(slices),
            wall_txn_per_s=round(run.load.txn_per_s, 1),
            granted_share=round(metrics.granted_share(first, last), 4),
            core_speed=round(run.load.pace.speed(first[0], last[0]), 4),
        )
        result.notes["rss_at_commits"] = (
            svc.RSS_AT_COMMITS if run.load.rss_mb else run.load.commits
        )
        result.values = {
            "setup_s": metrics.median(run.setup_samples),
            "txn_per_s": metrics.median(cut.txn_per_s for cut in slices),
            "txn_p50_ms": metrics.median(cut.txn_p50_ms for cut in slices),
            "rss_mb": run.rss_mb,
        }
        return result

    values = asyncio.run(
        layers.request_path_metrics(
            name, SERVER_FLAGS, config["programs"], config["batch"],
            config["journal"], recorder,
        )
    )
    values["txn_p99_ms"] = metrics.percentile(latencies, 99)
    values["restarts_per_commit"] = restarts / commits
    values["failed_share"] = result.failed / result.attempted
    values["trace.overhead_share"] = (
        1.0 - run.traced.txn_per_s / run.load.txn_per_s
    )
    if config["journal"]:
        values["journal_bytes_per_txn"] = run.journal_bytes / commits
        values["recover_s"] = run.recover_seconds
    result.values = values
    result.notes["spans"] = recorder.write(
        metrics.OUT_DIR / "trace-{}.jsonl".format(name)
    )
    return result


# -- the detector workload -------------------------------------------------


def run_detect(seed: int, seconds: float, trace: bool) -> Result:
    from bench import detect, layers, svc
    from bench.spans import SpanRecorder

    result = Result()
    core, setup = detect.build_with_ballast(lambda: detect.sharded_core(4))
    # Untraced: the whole window goes to planted rounds on binding 1.
    # Traced: it is shared with clean passes, the cluster binding and
    # the piece-by-piece rounds.
    planted = detect.run_rounds(
        core, seed, seconds=seconds * (0.4 if trace else 1.0)
    )
    count = len(planted.outcomes)
    latencies = planted.latencies_ms
    svc.require(
        count >= MIN_ROUNDS, "only {} rounds fit the window".format(count)
    )

    # The same rounds with no ballast on all three bindings: the victims
    # must be the same transactions everywhere, ballast or not.
    bare = {
        "shards=1": detect.run_rounds(detect.sharded_core(1), seed, count=count),
        "shards=4": detect.run_rounds(detect.sharded_core(4), seed, count=count),
        "LocalCluster": detect.run_rounds(
            detect.local_cluster(), seed, count=count
        ),
    }
    reference = bare.pop("shards=1")
    detect.check_same_victims(
        reference, dict(bare, **{"shards=4+ballast": planted})
    )
    cycles = sum(outcome.cycles for outcome in planted.outcomes)
    victims = sum(len(outcome.aborted) for outcome in planted.outcomes)
    result.attempted = len(latencies)
    result.notes.update(
        rounds=count,
        samples=len(latencies),
        tail_supported=metrics.tail_percentile(count),
        cycles=cycles,
        victims=victims,
    )
    if not trace:
        # Reference seconds round by round.  Rounds differ (30 to 42
        # planted transactions each), so the rate is all transactions
        # over all reference seconds, not a median of per-round rates;
        # a round's median latency is set by its pass, which does not
        # differ, so the median over rounds is reported.
        rounds = metrics.granted_enough(planted.outcomes)
        result.notes.update(
            rounds_used=len(rounds),
            wall_txn_per_s=round(len(latencies) / planted.busy_seconds, 1),
            core_speed=round(
                metrics.median(outcome.speed for outcome in rounds), 4
            ),
        )
        result.values = {
            "setup_s": metrics.median(setup),
            "txn_per_s": sum(len(outcome.latencies_ms) for outcome in rounds)
            / sum(
                outcome.busy_seconds * outcome.granted * outcome.speed
                for outcome in rounds
            ),
            "txn_p50_ms": metrics.median(
                metrics.median(outcome.latencies_ms)
                * outcome.granted * outcome.speed
                for outcome in rounds
            ),
            "rss_mb": detect.peak_rss_mb(),
        }
        return result

    recorder = SpanRecorder()
    values: Dict[str, float] = {
        "txn_p99_ms": metrics.percentile(latencies, 99),
        "restarts_per_commit": victims / len(latencies),
        "failed_share": 0.0,
        "pass_p50_ms": metrics.percentile(planted.pass_ms, 50),
        "pass_p90_ms": metrics.percentile(planted.pass_ms, 90),
        "abort_free_share": sum(o.tdr2 for o in planted.outcomes) / cycles,
        "core.detection.pass_noballast_ms": metrics.median(
            bare["shards=4"].pass_ms
        ),
    }
    for key in ("edges_examined", "cycles_found", "tdr1_applied", "tdr2_applied"):
        values["core.detection." + key] = metrics.median(
            getattr(outcome.stats, key) for outcome in planted.outcomes
        )
    values["clean_pass_p50_ms"] = metrics.median(
        detect.clean_passes(core, seconds * 0.1)
    )
    values.update(
        layers.sharded_pass_layers(core, seed, count, LAYER_ROUNDS, recorder)
    )

    cluster = detect.local_cluster()
    detect.load_ballast(cluster)
    clustered = detect.run_rounds(cluster, seed, seconds=seconds * 0.25)
    svc.require(
        len(clustered.outcomes) >= min(3, MIN_ROUNDS),
        "cluster binding ran only {} rounds".format(len(clustered.outcomes)),
    )
    detect.check_same_victims(reference, {"LocalCluster+ballast": clustered})
    values["cluster_pass_p50_ms"] = metrics.median(clustered.pass_ms)
    values.update(
        layers.cluster_pass_layers(cluster, seed, count, 3, recorder)
    )
    result.values = values
    result.notes["cluster_rounds"] = len(clustered.outcomes)
    result.notes["spans"] = recorder.write(
        metrics.OUT_DIR / "trace-detect_ballast.jsonl"
    )
    return result


# -- one run ---------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full record (the result line
    is its ``correct``/``attempted``/``failed``/``metrics`` part)."""
    metrics.strip_repro_env()
    cpu = metrics.pin_to_one_cpu()
    if name == "detect_ballast":
        result = run_detect(seed, seconds, trace)
    else:
        result = run_service(name, seed, seconds, trace)
    if trace:
        names = [row[0] for row in metrics.per_layer_catalog()]
    else:
        names = [row[0] for row in metrics.END_TO_END]
    unknown = set(result.values) - set(metrics.units())
    if unknown:
        raise RuntimeError("undeclared metrics {}".format(sorted(unknown)))
    units = metrics.units()
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            # A per-layer metric the workload's replay never enters is 0.
            metric: {
                "value": float(result.values.get(metric, 0.0)),
                "unit": units[metric],
            }
            for metric in names
        },
        "notes": result.notes,
        "fingerprint": dict(
            metrics.fingerprint(seed, result.server_flags), pinned_cpu=cpu
        ),
    }


def _result_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def _print_metrics(cells: dict, stream) -> None:
    for name, cell in cells.items():
        print(
            "  {:<44} {:>14.4f} {}".format(name, cell["value"], cell["unit"]),
            file=stream,
        )


def _print_record(record: dict, stream) -> None:
    print(
        "== {} (trace {}, seed {}, {} s) ==".format(
            record["workload"], record["trace"],
            record["fingerprint"]["seed"], record["seconds"],
        ),
        file=stream,
    )
    _print_metrics(record["metrics"], stream)
    print(
        "  attempted {}  failed {}  notes {}".format(
            record["attempted"], record["failed"],
            json.dumps(record["notes"], default=str),
        ),
        file=stream,
    )
    print("  env {}".format(json.dumps(record["fingerprint"])), file=stream)


def _save_record(record: dict) -> None:
    metrics.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = metrics.OUT_DIR / "record-{}-trace{}.json".format(
        record["workload"], record["trace"]
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)


# -- many runs -------------------------------------------------------------


def _spawn_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in its own process (peak RSS and set-up are per
    process); returns its result line, parsed."""
    done = subprocess.run(
        [
            sys.executable, str(_HERE / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=str(metrics.REPO_ROOT),
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(
            "run of {} (seed {}) failed with code {}".format(
                name, seed, done.returncode
            )
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced; every metric by name."""
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            line = _spawn_run(name, seed, seconds, trace)
            failed += line["failed"]
            print("== {} (trace {}) ==".format(name, trace))
            _print_metrics(line["metrics"], sys.stdout)
            print(
                "  correct {}  attempted {}  failed {}".format(
                    line["correct"], line["attempted"], line["failed"]
                )
            )
    return 1 if failed else 0


def run_sets(
    sets: int, runs: int, seed: int, seconds: int, write: bool
) -> int:
    """Agreement mode: do repeated sets of runs of the same code agree
    within the benchmark's own bounds?"""
    with open(metrics.REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    bounds = {row["name"]: row["bound"] for row in manifest["end_to_end"]}
    better = {row["name"]: row["better"] for row in manifest["end_to_end"]}
    #: values[set][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = []
    failed = 0
    for index in range(sets):
        order = list(WORKLOADS)
        if index % 2:
            order.reverse()
        table: Dict[str, Dict[str, List[float]]] = {}
        for name in order:
            for run in range(runs):
                line = _spawn_run(name, seed + index * runs + run, seconds, 0)
                failed += line["failed"]
                for metric, cell in line["metrics"].items():
                    table.setdefault(name, {}).setdefault(metric, []).append(
                        cell["value"]
                    )
                print(
                    "set {} {} run {}: {}".format(
                        index + 1, name, run + 1,
                        " ".join(
                            "{}={:.4g}".format(metric, cell["value"])
                            for metric, cell in line["metrics"].items()
                        ),
                    ),
                    flush=True,
                )
        values.append(table)

    baseline: Dict[str, dict] = {}
    disagreements = 0
    print("\n{:<18} {:<12} {:>12} {:>8} {:>8} {:>7}  verdict".format(
        "workload", "metric", "median", "spread", "worse", "bound"))
    for name in WORKLOADS:
        for metric in bounds:
            medians = [
                metrics.median(table[name][metric]) for table in values
            ]
            spreads = [
                metrics.spread(table[name][metric]) for table in values
            ]
            first, last = medians[0], medians[-1]
            # How much worse the last set's median reads than the first's.
            worse = (last - first) / first
            if better[metric] == "higher":
                worse = -worse
            bound = bounds[metric]
            agrees = worse <= bound and (
                metric == "setup_s" or max(spreads) <= bound
            )
            disagreements += not agrees
            print("{:<18} {:<12} {:>12.4f} {:>8.4f} {:>8.4f} {:>7.3f}  {}".format(
                name, metric, first, max(spreads), worse, bound,
                "ok" if agrees else "DISAGREE"))
            baseline.setdefault(name, {})[metric] = {
                "medians": medians,
                "spreads": spreads,
                "runs": [table[name][metric] for table in values],
            }
    print("failed operations: {}".format(failed))
    if write:
        with open(_HERE / "baseline.json", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fingerprint": metrics.fingerprint(seed, SERVER_FLAGS),
                    "run_seconds": seconds,
                    "runs_per_set": runs,
                    "sets": sets,
                    "bounds": bounds,
                    "workloads": baseline,
                },
                handle,
                indent=1,
            )
            handle.write("\n")
        print("wrote bench/baseline.json")
    return 1 if disagreements or failed else 0


# -- entry point -----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    if args.workload is None:
        if args.sets:
            return run_sets(
                args.sets, args.runs, args.seed, args.seconds,
                args.write_baseline,
            )
        return run_all(args.seed, args.seconds)

    try:
        from bench.svc import CheckFailed
    except ImportError as exc:
        # The benchmark measures the program in this checkout; without
        # its sources there is nothing to run.
        print("cannot import the program under test: {}".format(exc),
              file=sys.stderr)
        return 2

    # A terminated run must still unwind (and stop its server): turn
    # SIGTERM into an ordinary exit so every ``finally`` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.perf_counter()
    try:
        record = run_one(
            args.workload, args.seed, float(args.seconds), bool(args.trace)
        )
    except CheckFailed as exc:
        print("check failed: {}".format(exc), file=sys.stderr)
        return 1
    record["notes"]["wall_seconds"] = round(time.perf_counter() - started, 1)
    _save_record(record)
    _print_record(record, sys.stderr)
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
