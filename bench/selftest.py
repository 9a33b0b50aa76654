#!/usr/bin/env python3
"""Self-test of the benchmark harness (about 30 s, shrunken windows).

Checks the harness, not the program's speed:

* ``BENCHMARK.json`` and the catalog in ``metrics.py`` name the same
  workloads and metrics, every name matches ``[A-Za-z0-9_.-]+`` and has
  a unit;
* a run of every kind prints every metric of its tier, with its unit;
* the deterministic replays' counts and ``abort_free_share`` are
  identical across two runs;
* the load generator refuses to start with more connections than
  cores.

Exits non-zero on the first violated check.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE.parent / "src"), str(_HERE.parent)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import detect, layers, metrics, run, svc, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selftest: " + message)


def check_manifest() -> None:
    with open(metrics.REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    check(
        [row["name"] for row in manifest["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from run.WORKLOADS",
    )
    declared = [
        (row["name"], row["unit"], row["better"])
        for row in manifest["end_to_end"]
    ]
    check(
        declared == [row[:3] for row in metrics.END_TO_END],
        "BENCHMARK.json end_to_end differs from metrics.END_TO_END",
    )
    check(
        [
            (row["name"], row["unit"], row["better"])
            for row in manifest["per_layer"]
        ]
        == metrics.per_layer_catalog(),
        "BENCHMARK.json per_layer differs from the catalog",
    )
    names = [row[0] for row in metrics.END_TO_END]
    names += [row[0] for row in metrics.per_layer_catalog()]
    check(len(names) == len(set(names)), "a metric name is used twice")
    for name, unit in metrics.units().items():
        check(bool(NAME.match(name)), "bad metric name {!r}".format(name))
        check(bool(UNIT.match(unit)), "bad unit {!r} on {}".format(unit, name))
    bounds = {name: bound for name, _, _, bound in metrics.END_TO_END}
    for row in manifest["end_to_end"]:
        check(
            row["bound"] == bounds[row["name"]] <= 0.25,
            "bound of {} differs from metrics.END_TO_END".format(row["name"]),
        )
    check(
        any(row["name"] == "setup_s" for row in manifest["end_to_end"]),
        "no setup_s",
    )


def check_refuses_oversubscription() -> None:
    try:
        svc.check_generator_fits((os.cpu_count() or 1) + 1)
    except svc.CheckFailed:
        return
    check(False, "generator accepted more connections than cores")


def check_deterministic() -> None:
    def hotspot_counts():
        streams = [workloads.hotspot_programs(7, slot) for slot in range(8)]
        counts = layers.interleave(streams, commits=300)
        counts.pop("service.core.detect_step_ms")
        return counts

    check(
        hotspot_counts() == hotspot_counts(),
        "interleaved replay counts differ between two runs",
    )

    def planted():
        rounds = detect.run_rounds(detect.sharded_core(4), 7, count=6)
        cycles = sum(outcome.cycles for outcome in rounds.outcomes)
        share = sum(outcome.tdr2 for outcome in rounds.outcomes) / cycles
        return share, rounds.aborted_sets

    first, second = planted(), planted()
    check(first == second, "planted rounds differ between two runs")
    check(0.0 < first[0] < 1.0, "abort_free_share is degenerate")


def check_records() -> None:
    """Shrunken runs of each kind: every metric of the tier, by name,
    with its unit."""
    svc.WARMUP_SECONDS = 0.3
    svc.SETUP_SAMPLES = 1
    run.MIN_SAMPLES = 50
    run.MIN_ROUNDS = 2
    detect.BALLAST = 256
    detect.SETUP_SAMPLES = 1
    layers.REPLAY_TXNS = 40
    layers.RTT_PROBES = 40
    layers.INTERLEAVE_COMMITS = 100
    tiers = {
        0: [row[0] for row in metrics.END_TO_END],
        1: [row[0] for row in metrics.per_layer_catalog()],
    }
    units = metrics.units()
    for name, trace, seconds in (
        ("svc_uniform", 0, 1.0),
        ("svc_hotspot", 1, 2.0),
        ("svc_batch_durable", 1, 2.0),
        ("detect_ballast", 0, 1.0),
        ("detect_ballast", 1, 3.0),
    ):
        record = run.run_one(name, 3, seconds, bool(trace))
        check(record["correct"] and record["failed"] == 0,
              "{} failed operations".format(name))
        check(
            list(record["metrics"]) == tiers[trace],
            "{} trace {} printed the wrong metric set".format(name, trace),
        )
        for metric, cell in record["metrics"].items():
            check(
                cell["unit"] == units[metric]
                and isinstance(cell["value"], float),
                "{}: bad cell for {}".format(name, metric),
            )
        if trace == 0:
            check(
                all(cell["value"] > 0 for cell in record["metrics"].values()),
                "{}: an end-to-end metric is 0".format(name),
            )
        check(
            {"cpu", "nproc", "python", "event_loop", "commit", "seed",
             "server_flags"} <= set(record["fingerprint"]),
            "{}: incomplete fingerprint".format(name),
        )
    check(
        not any(key.startswith("REPRO_") for key in os.environ),
        "REPRO_* survived in the environment",
    )


def main() -> int:
    started = time.perf_counter()
    os.environ["REPRO_SHARDS"] = "4"  # must be stripped, not inherited
    check_manifest()
    check_refuses_oversubscription()
    check_deterministic()
    check_records()
    print("selftest ok ({:.1f} s)".format(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
