"""``validate_serve_config``: the one place serve topologies are judged."""

import dataclasses

import pytest

from repro.cli import ServeConfigError, main, validate_serve_config


class TestContradictions:
    def test_continuous_vs_other_policy(self, capsys):
        # One flag, one destination: the parser itself refuses both.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--continuous", "--policy", "nowait"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_continuous_flag_with_continuous_policy_ok(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--continuous"])
        assert args.policy == "continuous"
        config = validate_serve_config(policy=args.policy)
        assert config.policy == "continuous"
        assert config.shards == 1

    def test_continuous_rejects_workers(self):
        with pytest.raises(ServeConfigError, match="workers"):
            validate_serve_config(policy="continuous", workers=4)

    def test_continuous_policy_rejects_workers(self):
        with pytest.raises(ServeConfigError, match="workers"):
            validate_serve_config(policy="continuous", workers=2)

    def test_continuous_rejects_explicit_shards(self):
        with pytest.raises(ServeConfigError, match="shards"):
            validate_serve_config(policy="continuous", shards=4)

    def test_bad_worker_and_shard_counts(self):
        with pytest.raises(ServeConfigError, match="workers"):
            validate_serve_config(workers=0)
        with pytest.raises(ServeConfigError, match="shards"):
            validate_serve_config(shards=0)

    def test_unknown_policy(self):
        with pytest.raises(ServeConfigError, match="bogus"):
            validate_serve_config(policy="bogus")


class TestNormalisation:
    def test_defaults(self):
        config = validate_serve_config()
        assert config.policy == "periodic"
        assert config.shards == 1
        assert config.workers == 1
        assert config.warnings == ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.shards = 4

    def test_policy_with_workers_is_fine(self):
        config = validate_serve_config(policy="nowait", workers=3)
        assert config.policy == "nowait"
        assert config.workers == 3

    def test_inert_policy_warns(self):
        config = validate_serve_config(policy="adaptive", period=0.0)
        assert any("inert" in w for w in config.warnings)


class TestServeExitCode:
    def test_contradiction_exits_2(self, capsys):
        code = main(["serve", "--continuous", "--shards", "4"])
        assert code == 2
        assert "--shards 4" in capsys.readouterr().err

    def test_workers_contradiction_exits_2(self, capsys):
        code = main(["serve", "--continuous", "--workers", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "workers" in err

    def test_policy_choices_enforced_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--policy", "bogus"])
        assert excinfo.value.code == 2
