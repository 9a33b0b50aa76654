"""Lock service smoke benchmark: the cost of going over the wire.

Two measurements a deployer wants before pointing clients at
``python -m repro serve``:

* the per-operation round-trip cost of a remote acquire/commit pair
  against a loopback server, and
* closed-loop throughput of the *same* threaded workload
  (:func:`repro.sim.realtime.run_realtime`) through the injected
  lock-manager factory — run with ``--lock-backend=local`` (embedded
  ``ShardedLockManager``, the baseline) and ``--lock-backend=remote``
  (``RemoteLockManager`` over TCP) to compare apples to apples.
"""

from repro.core.modes import LockMode
from repro.obs.metrics import MetricsRegistry
from repro.service import LoopbackServer, RemoteLockManager
from repro.sim.realtime import run_realtime
from repro.sim.workload import WorkloadSpec

#: A small, mildly contended workload that finishes in seconds yet still
#: produces blocking and the occasional deadlock restart.
SMOKE_SPEC = WorkloadSpec(
    resources=32,
    hotspot_resources=4,
    hotspot_probability=0.5,
    min_size=2,
    max_size=4,
    write_fraction=0.3,
    upgrade_fraction=0.1,
)


def test_remote_acquire_commit_round_trip(benchmark):
    """One uncontended acquire+commit pair over the loopback socket."""
    with LoopbackServer(period=None) as server:
        with RemoteLockManager(server.host, server.port) as manager:
            counter = [0]

            def acquire_commit():
                counter[0] += 1
                tid = counter[0]
                assert manager.acquire(tid, "R", LockMode.X)
                manager.commit(tid)

            benchmark(acquire_commit)


def test_closed_loop_throughput(
    lock_manager_factory, record_result, record_metrics, request
):
    """The injected backend under a saturating four-worker load."""
    registry = MetricsRegistry()
    metrics = run_realtime(
        lock_manager_factory,
        spec=SMOKE_SPEC,
        workers=4,
        txns_per_worker=8,
        seed=7,
        lock_timeout=0.3,
        registry=registry,
    )
    assert metrics.commits == 4 * 8
    summary = metrics.summary()
    record_result(
        "service_closed_loop",
        "closed-loop lock workload (4 workers x 8 txns)\n"
        + "\n".join(
            "{:<14} : {}".format(key, value)
            for key, value in summary.items()
        ),
    )
    record_metrics(
        "service_closed_loop",
        summary,
        metrics=registry.snapshot(),
        params={"backend": request.config.getoption("--lock-backend")},
    )


def test_telemetry_overhead(record_result, record_metrics):
    """Instrumentation cost: the same loopback workload with telemetry
    enabled (the default) vs constructed disabled.

    The acceptance bar is <=5% throughput overhead; a single CI run is
    too noisy for a hard gate, so the ratio is recorded (and asserted
    only against a generous 1.5x tripwire that catches a hot-path
    regression without flaking)."""
    from repro.obs import Telemetry

    def measure(telemetry):
        with LoopbackServer(period=0.05, telemetry=telemetry) as server:
            metrics = run_realtime(
                lambda: RemoteLockManager(server.host, server.port),
                spec=SMOKE_SPEC,
                workers=4,
                txns_per_worker=8,
                seed=7,
                lock_timeout=0.3,
            )
        assert metrics.commits == 4 * 8
        return metrics.summary()

    disabled = measure(Telemetry(enabled=False))
    enabled = measure(None)  # server default: enabled
    ratio = (
        disabled["throughput"] / enabled["throughput"]
        if enabled["throughput"]
        else 1.0
    )
    summary = {
        "throughput_enabled": enabled["throughput"],
        "throughput_disabled": disabled["throughput"],
        "overhead_ratio": round(ratio, 3),
    }
    record_result(
        "service_telemetry_overhead",
        "telemetry overhead (loopback, 4 workers x 8 txns)\n"
        + "\n".join(
            "{:<20} : {}".format(key, value)
            for key, value in summary.items()
        ),
    )
    record_metrics("service_telemetry_overhead", summary)
    assert ratio < 1.5, (
        "telemetry overhead tripwire: disabled/enabled throughput "
        "ratio {:.2f}".format(ratio)
    )
