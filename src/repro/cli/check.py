"""``check``: the deterministic schedule explorer."""

from __future__ import annotations

from ..check import CheckConfig, run_check
from ..check.artifact import load_artifact, replay_artifact


def cmd_check(args) -> int:
    if args.replay:
        artifact = load_artifact(args.replay)
        outcome = replay_artifact(artifact, tail=args.tail)
        print(
            "replaying {} schedule (seed {}, {} decisions)".format(
                artifact.backend, artifact.seed, len(artifact.decisions)
            )
        )
        if args.trace:
            print("\n".join(outcome.trace))
        print(outcome.result.summary())
        if artifact.failure and not outcome.reproduced:
            print("recorded failure did NOT reproduce")
            return 1
        return 0 if outcome.result.ok else 1

    backends = args.backends or None
    config = CheckConfig(
        seed=args.seed,
        schedules=args.schedules,
        backends=tuple(backends) if backends else ("concurrent", "service"),
        actors=args.actors,
        preset=args.preset,
        faults=not args.no_faults,
        exhaustive=args.exhaustive,
        max_failures=args.max_failures,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
    )
    report = run_check(config, log=lambda line: print(line, flush=True))
    print("\n".join(report.summary_lines()))
    return 0 if report.ok else 1
