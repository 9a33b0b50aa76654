"""``resolve_policy``: the one place policy selection happens."""

import pytest

from repro.policy import (
    POLICIES,
    DetectionPolicy,
    NoWaitPolicy,
    PeriodicPolicy,
    resolve_policy,
)


class TestResolution:
    def test_default_is_periodic(self):
        policy = resolve_policy()
        assert isinstance(policy, PeriodicPolicy)
        assert policy.name == "periodic"
        assert not policy.continuous
        assert policy.wants_periodic

    def test_each_name_resolves(self):
        for name, factory in POLICIES.items():
            policy = resolve_policy(name)
            assert isinstance(policy, factory)
            assert policy.name == name

    def test_instance_passes_through(self):
        instance = NoWaitPolicy()
        assert resolve_policy(instance) is instance

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            resolve_policy("bogus")

    def test_bind_returns_self(self):
        host = object()
        policy = resolve_policy("periodic")
        assert policy.bind(host) is policy


class TestNoEnvironment:
    def test_exported_variables_flip_no_default(self, monkeypatch):
        """Shard count, policy and wire are explicit arguments only:
        variables a shell might still export change nothing."""
        from repro.lockmgr import ShardedLockCore
        from repro.service.wire import WIRE_JSON, resolve_wire

        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_POLICY", "nowait")
        monkeypatch.setenv("REPRO_WIRE", "binary")
        core = ShardedLockCore()
        assert core.shard_count == 1
        assert isinstance(core.policy, PeriodicPolicy)
        assert resolve_wire() == WIRE_JSON


class TestBaseHooks:
    """The abstract base's defaults are all no-ops."""

    def test_defaults(self):
        policy = DetectionPolicy()
        assert policy.on_block(None, 1, "R1", None) is None
        assert policy.current_period(0.5) == 0.5
        policy.observe_pass(None, 0.0)
        assert policy.describe() == {"name": "abstract"}
