"""``validate_serve_config``: the one place serve flags are judged."""

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

    def test_continuous_rejects_explicit_shards(self):
        with pytest.raises(ServeConfigError, match="shards"):
            validate_serve_config(policy="continuous", shards=4)

    def test_bad_shard_count(self):
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
        assert config.warnings == ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.shards = 4

    def test_inert_policy_warns(self):
        config = validate_serve_config(policy="adaptive", period=0.0)
        assert any("inert" in w for w in config.warnings)


class TestServeExitCode:
    def test_contradiction_exits_2(self, capsys):
        code = main(["serve", "--continuous", "--shards", "4"])
        assert code == 2
        assert "--shards 4" in capsys.readouterr().err

    def test_policy_choices_enforced_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--policy", "bogus"])
        assert excinfo.value.code == 2


class TestImpossibleValues:
    """Values the server cannot run with are refused before it starts
    (the parent started a server that closed every connection on
    ``--max-frame -5`` and printed ``lease=nans`` on ``--lease nan``)."""

    CASES = [
        ("--max-frame", "-5"),
        ("--max-frame", "0"),
        ("--lease", "-1"),
        ("--lease", "nan"),
        ("--lease", "inf"),
        ("--period", "nan"),
        ("--period", "inf"),
    ]

    @pytest.mark.parametrize(
        "flag,value", CASES, ids=["{} {}".format(*case) for case in CASES]
    )
    def test_exits_2_before_a_server_is_built(
        self, flag, value, capsys, monkeypatch
    ):
        def refuse(**kwargs):
            raise AssertionError("a server was built")

        monkeypatch.setattr("repro.cli.serve.LockServer", refuse)
        assert main(["serve", "--port", "0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: {} must be".format(flag)), err

    def test_limits_themselves_are_accepted(self):
        config = validate_serve_config(lease=0.0, period=-1.0, max_frame=1)
        assert config.warnings == ()
