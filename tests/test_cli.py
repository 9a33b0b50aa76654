"""The command-line interface."""

import argparse
import json

import pytest

from repro.cli import main, parse_costs, read_table
from tests.conftest import EXAMPLE_41, EXAMPLE_51


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(EXAMPLE_51)
    return str(path)


@pytest.fixture
def example_json(tmp_path, example_51_table):
    from repro.core.serialize import dumps

    path = tmp_path / "state.json"
    path.write_text(dumps(example_51_table))
    return str(path)


class TestInspect:
    def test_report_printed(self, example_file, capsys):
        assert main(["inspect", example_file]) == 0
        out = capsys.readouterr().out
        assert "DEADLOCKED" in out
        assert "R1(S)" in out

    def test_json_input(self, example_json, capsys):
        assert main(["inspect", example_json]) == 0
        assert "R2(S)" in capsys.readouterr().out


class TestGraph:
    def test_edges(self, example_file, capsys):
        main(["graph", example_file])
        out = capsys.readouterr().out
        assert "T1 -H-> T2" in out

    def test_dot(self, example_file, capsys):
        main(["graph", example_file, "--dot"])
        assert "digraph" in capsys.readouterr().out


class TestDetect:
    def test_paper_costs(self, example_file, capsys):
        code = main(
            ["detect", example_file, "--cost", "1=6", "--cost", "2=4",
             "--cost", "3=1"]
        )
        out = capsys.readouterr().out
        assert code == 1  # aborts happened
        assert "aborted: [2]" in out
        assert "spared: [3]" in out

    def test_trace_flag(self, example_file, capsys):
        main(["detect", example_file, "--trace"])
        assert "walk from T1" in capsys.readouterr().out

    def test_no_deadlock_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.txt"
        path.write_text("R1: Holder((T1, S, NL)) Queue((T2, X))")
        assert main(["detect", str(path)]) == 0
        assert "no deadlock" in capsys.readouterr().out

    def test_tdr2_example_41(self, tmp_path, capsys):
        path = tmp_path / "e41.txt"
        path.write_text(EXAMPLE_41)
        assert main(["detect", str(path)]) == 0  # abort-free
        out = capsys.readouterr().out
        assert "repositioned queues: R2" in out

    def test_no_tdr2_flag(self, tmp_path, capsys):
        path = tmp_path / "e41.txt"
        path.write_text(EXAMPLE_41)
        assert main(["detect", str(path), "--no-tdr2"]) == 1


class TestSimulate:
    def test_runs_and_prints_summary(self, capsys):
        code = main(
            ["simulate", "--strategy", "park-periodic", "--duration", "40",
             "--terminals", "4", "--resources", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "park-periodic" in out
        assert "commits" in out

    def test_compare_subset(self, capsys):
        code = main(
            ["compare", "--strategies", "park-periodic", "wfg",
             "--duration", "40", "--terminals", "4", "--runs", "1",
             "--resources", "24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "park-periodic" in out and "wfg-continuous" in out

    def test_simulate_with_preset(self, capsys):
        code = main(
            ["simulate", "--preset", "low-contention", "--duration", "30",
             "--terminals", "3"]
        )
        assert code == 0
        assert "commits" in capsys.readouterr().out


class TestProfile:
    def test_prints_hot_functions(self, capsys):
        code = main(
            ["profile", "--duration", "20", "--terminals", "3",
             "--resources", "24", "--top", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profiled park-periodic" in out
        assert "cumulative" in out
        assert "ncalls" in out

    def test_writes_pstats_file(self, tmp_path, capsys):
        import pstats

        target = tmp_path / "run.pstats"
        code = main(
            ["profile", "--duration", "20", "--terminals", "3",
             "--resources", "24", "--sort", "tottime",
             "--out", str(target)]
        )
        assert code == 0
        assert "pstats profile written to" in capsys.readouterr().out
        # The dump is a loadable pstats file.
        stats = pstats.Stats(str(target))
        assert stats.total_calls > 0


class TestServiceCommands:
    @pytest.fixture
    def running_service(self):
        from repro.service import LoopbackServer

        with LoopbackServer(period=None) as server:
            yield server

    def test_remote_stats(self, running_service, capsys):
        code = main(
            ["remote", "stats", "--port", str(running_service.port)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions_opened" in out
        assert "detector_passes" in out

    def test_remote_report_and_detect(self, running_service, capsys):
        from repro.core.modes import LockMode
        from repro.service import RemoteLockManager

        port = running_service.port
        with RemoteLockManager("127.0.0.1", port) as one:
            with RemoteLockManager("127.0.0.1", port) as two:
                assert one.acquire(1, "R1", LockMode.S)
                assert two.acquire(2, "R2", LockMode.S)
                # Timed-out requests stay queued: a live deadlock.
                assert not one.acquire(1, "R2", LockMode.X, timeout=0.05)
                assert not two.acquire(2, "R1", LockMode.X, timeout=0.05)
                assert main(["remote", "report", "--port", str(port)]) == 0
                assert "DEADLOCKED" in capsys.readouterr().out
                assert main(["remote", "detect", "--port", str(port)]) == 0
                out = capsys.readouterr().out
                assert "resolved 1 cycle(s)" in out
                assert "aborted:" in out

    def test_remote_graph_dump_log(self, running_service, capsys):
        port = str(running_service.port)
        assert main(["remote", "dump", "--port", port]) == 0
        assert main(["remote", "graph", "--port", port]) == 0
        assert main(["remote", "log", "--port", port]) == 0
        assert "events total" in capsys.readouterr().out

    def test_remote_connection_refused(self, capsys):
        code = main(["remote", "stats", "--port", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--period", "0"])
        assert args.run == "serve:cmd_serve"
        assert args.port == 7411
        assert args.period == 0.0
        assert args.lease == 5.0


class TestCheck:
    def test_small_sweep_passes(self, capsys):
        code = main(
            ["check", "--seed", "3", "--schedules", "8",
             "--backends", "concurrent"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "result: OK" in out
        assert "trace digest:" in out

    def test_same_seed_same_digest(self, capsys):
        def digest():
            assert main(["check", "--seed", "11", "--schedules", "6"]) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if "trace digest" in l][0]

        assert digest() == digest()

    def test_exhaustive_races(self, capsys):
        code = main(
            ["check", "--backends", "races", "--exhaustive",
             "--schedules", "50"]
        )
        assert code == 0
        assert "races" in capsys.readouterr().out

    def test_replay_artifact_round_trip(self, tmp_path, capsys):
        from repro.check import RandomChooser, VirtualScheduler
        from repro.check.artifact import Artifact, save_artifact
        from repro.check.races import RaceModel

        scheduler = VirtualScheduler(RandomChooser(99))
        RaceModel().run(scheduler)
        artifact = Artifact(
            backend="races",
            seed=99,
            actors=2,
            preset="tiny-hot",
            continuous=False,
            faults=False,
            decisions=scheduler.decisions(),
        )
        path = str(tmp_path / "schedule.json")
        save_artifact(artifact, path)
        assert main(["check", "--replay", path, "--tail", "error"]) == 0
        out = capsys.readouterr().out
        assert "replaying races schedule" in out

    def test_check_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["check"])
        assert args.run == "check:cmd_check"
        assert args.seed == 0
        assert args.schedules == 200
        assert not args.exhaustive
        assert args.tail == "first"


class TestHelpers:
    def test_parse_costs(self):
        costs = parse_costs(["1=6", "T2=4.5"])
        assert costs.cost(1) == 6.0
        assert costs.cost(2) == 4.5

    def test_read_table_notation(self, example_file):
        table = read_table(example_file)
        assert len(table) == 2

    def test_read_table_json(self, example_json):
        table = read_table(example_json)
        assert table.blocked_at(1) == "R2"


def parser_shape(parser):
    """Per subcommand, each argument as (option strings or dest,
    choices, default) in declaration order."""
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        name: [
            (
                " ".join(action.option_strings) or action.dest,
                sorted(action.choices) if action.choices else None,
                action.default,
            )
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, sub in commands.choices.items()
    }


#: ``parser_shape(build_parser())`` at commit 3242e28, the last one with
#: a one-file ``cli.py`` (``pprint`` output, committed as printed), with
#: ``serve``'s detector flags since: ``--continuous`` stores into
#: ``policy``, and ``--policy``/``--shards`` default to a constant;
#: ``simulate`` has since lost its benchmark-record option, and
#: ``serve`` and ``top`` their worker-process cluster flags.
PARENT_PARSER_SHAPE = \
{'inspect': [('file', None, None)],
 'graph': [('file', None, None), ('--dot', None, False)],
 'detect': [('file', None, None), ('--cost', None, []),
            ('--no-tdr2', None, False), ('--trace', None, False)],
 'simulate': [('--strategy',
               ['agrawal', 'elmagarmid', 'jiang', 'nowait',
                'park-adaptive', 'park-continuous', 'park-periodic',
                'timeout', 'wait-die', 'wfg', 'wound-wait'],
               'park-periodic'),
              ('--duration', None, 150.0), ('--terminals', None, 6),
              ('--seed', None, 1), ('--period', None, 5.0),
              ('--resources', None, 36), ('--write-fraction', None, 0.35),
              ('--upgrade-fraction', None, 0.25),
              ('--preset',
               ['conversion-heavy', 'five-mode', 'high-contention',
                'low-contention'],
               None)],
 'compare': [('--strategies',
              ['agrawal', 'elmagarmid', 'jiang', 'nowait',
               'park-adaptive', 'park-continuous', 'park-periodic',
               'timeout', 'wait-die', 'wfg', 'wound-wait'],
              None),
             ('--runs', None, 2), ('--duration', None, 150.0),
             ('--terminals', None, 6), ('--seed', None, 1),
             ('--period', None, 5.0), ('--resources', None, 36),
             ('--write-fraction', None, 0.35),
             ('--upgrade-fraction', None, 0.25),
             ('--preset',
              ['conversion-heavy', 'five-mode', 'high-contention',
               'low-contention'],
              None)],
 'profile': [('--strategy',
              ['agrawal', 'elmagarmid', 'jiang', 'nowait',
               'park-adaptive', 'park-continuous', 'park-periodic',
               'timeout', 'wait-die', 'wfg', 'wound-wait'],
              'park-periodic'),
             ('--duration', None, 150.0), ('--terminals', None, 6),
             ('--seed', None, 1), ('--period', None, 5.0),
             ('--resources', None, 36), ('--write-fraction', None, 0.35),
             ('--upgrade-fraction', None, 0.25),
             ('--preset',
              ['conversion-heavy', 'five-mode', 'high-contention',
               'low-contention'],
              None),
             ('--top', None, 25),
             ('--sort', ['calls', 'cumulative', 'tottime'], 'cumulative'),
             ('--out', None, None)],
 'serve': [('--host', None, '127.0.0.1'), ('--port', None, 7411),
           ('--unix', None, None), ('--max-frame', None, None),
           ('--period', None, 0.5), ('--lease', None, 5.0),
           ('--continuous', None, 'periodic'),
           ('--policy',
            ['adaptive', 'continuous', 'nowait', 'periodic'],
            'periodic'),
           ('--shards', None, 1), ('--cost', None, []),
           ('--journal', None, None),
           ('--journal-fsync', ['always', 'batch', 'never'], 'batch'),
           ('--metrics-port', None, None),
           ('--incident-log', None, None)],
 'remote': [('action',
             ['detect', 'dump', 'graph', 'log', 'metrics', 'report',
              'stats'],
             None),
            ('--host', None, '127.0.0.1'), ('--port', None, 7411),
            ('--dot', None, False), ('--limit', None, 20)],
 'top': [('--host', None, '127.0.0.1'), ('--port', None, 7411),
         ('--interval', None, 1.0), ('--once', None, False),
         ('--incidents', None, None)],
 'trace-export': [('--host', None, '127.0.0.1'), ('--port', None, 7411),
                  ('--out', None, None), ('--limit', None, 0)],
 'incidents': [('action', ['graph', 'list', 'show'], None),
               ('file', None, None), ('--id', None, None),
               ('--limit', None, 0)],
 'check': [('--seed', None, 0), ('--schedules', None, 200),
           ('--backends',
            ['cluster', 'concurrent', 'policy', 'races', 'service',
             'sharded'],
            None),
           ('--actors', None, 3),
           ('--preset', ['tiny-five-mode', 'tiny-hot'], 'tiny-hot'),
           ('--exhaustive', None, False), ('--no-faults', None, False),
           ('--max-failures', None, 1), ('--no-shrink', None, False),
           ('--artifact-dir', None, None), ('--replay', None, None),
           ('--tail', ['error', 'first'], 'first'),
           ('--trace', None, False)]}


class TestParserAcrossTheSplit:
    def test_parser_matches_the_parent_snapshot(self):
        from repro.cli import build_parser

        assert parser_shape(build_parser()) == PARENT_PARSER_SHAPE

    def test_every_handler_string_resolves(self):
        from repro.cli import build_parser, load_handler

        parser = build_parser()
        positionals = {
            "inspect": ["f"], "graph": ["f"], "detect": ["f"],
            "remote": ["stats"], "incidents": ["list", "f"],
        }
        for name in PARENT_PARSER_SHAPE:
            args = parser.parse_args([name] + positionals.get(name, []))
            handler = load_handler(args.run)
            assert handler.__name__ == "cmd_" + name.replace("-", "_")

    def test_literal_choices_match_their_tables(self):
        from repro.cli import PRESET_NAMES, STRATEGY_NAMES
        from repro.cli.simulate import STRATEGIES
        from repro.sim.workload import PRESETS

        assert list(STRATEGY_NAMES) == sorted(STRATEGIES)
        assert list(PRESET_NAMES) == sorted(PRESETS)

    @pytest.mark.parametrize("command", [None] + list(PARENT_PARSER_SHAPE))
    def test_help_exits_zero(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["no-such-command"])
        assert raised.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
