"""The serving core replaying a finite stream, and its operation stream."""

import json
import math

import pytest

from repro.bench.serve import (
    SERVE_PROFILES,
    ExecutorWorkers,
    ServeConfig,
    ServingCore,
    build_world,
    per_operation,
    write_report,
)
from repro.costmodel.parameters import ApplicationProfile
from repro.errors import InjectedFault
from repro.faults import FaultInjector
from repro.workload.generator import ChainGenerator
from repro.workload.opstream import Operation, operation_stream
from repro.workload.profiles import FIG14_MIX

TINY = ServeConfig(clients=2, ops=24, seed=7, capacity=64, io_micros=20.0)


class TestOperationStream:
    def make_generated(self, seed=0):
        profile = ApplicationProfile(
            c=(20, 40, 60, 120, 240), d=(18, 32, 48, 100), fan=(2, 2, 2, 2)
        )
        return ChainGenerator(seed=seed).generate(profile)

    def test_same_seed_same_stream(self):
        generated = self.make_generated()
        first = operation_stream(generated, FIG14_MIX, count=60, seed=4)
        second = operation_stream(generated, FIG14_MIX, count=60, seed=4)
        assert [(op.name, op.kind, op.owner, op.target) for op in first] == [
            (op.name, op.kind, op.owner, op.target) for op in second
        ]

    def test_stream_respects_count_and_fraction(self):
        generated = self.make_generated()
        stream = operation_stream(generated, FIG14_MIX, count=50, seed=1)
        assert len(stream) == 50
        assert all(isinstance(op, Operation) for op in stream)
        kinds = {op.kind for op in stream}
        assert kinds == {"query", "update"}
        only_queries = operation_stream(
            generated, FIG14_MIX, count=30, seed=1, query_fraction=1.0
        )
        assert {op.kind for op in only_queries} == {"query"}


def replay(config: ServeConfig):
    """Replay ``config``'s stream once through the serving core.

    The arrivals await ``queue.put`` over the finite stream, so every
    operation runs (waiting at the admission bound instead of shedding).
    Returns the world, the core and the samples after the drain.
    """
    world = build_world(config)
    samples = []
    core = ServingCore(world, record=lambda sample, _op: samples.append(sample))

    async def arrivals():
        for op in world.stream():
            await core.queue.put(core.entry(op))

    try:
        core.run(arrivals)
    finally:
        core.close()
    world.manager.check_consistency()
    world.pool.pool.check_invariants()
    world.drift.publish(world.registry)
    return world, core, samples


@pytest.fixture(scope="module")
def tiny():
    return replay(TINY)


class TestServeBench:
    def test_report_shape_and_accounting(self, tiny, tmp_path):
        world, _core, samples = tiny
        assert world.pool.check_accounting()["ok"] is True
        # Every stream operation ran exactly once.
        table = per_operation(samples)
        assert sum(entry["count"] for entry in table.values()) == TINY.ops
        for entry in table.values():
            assert {"count", "p50_ms", "p95_ms", "p99_ms", "mean_ms"} <= set(entry)
            assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
        out = tmp_path / "operations.json"
        write_report(table, out)
        assert json.loads(out.read_text()) == table

    def test_pool_counters_reported(self, tiny):
        pool = tiny[0].pool.describe()
        assert pool["capacity"] == 64
        assert pool["hits"] + pool["misses"] > 0

    def test_metrics_snapshot_embedded_and_consistent(self, tiny):
        world = tiny[0]
        world.pool.check_accounting(world.registry)
        metrics = world.registry.snapshot()
        assert set(metrics) == {"counters", "gauges", "histograms"}
        gauges = {
            name: entries[0]["value"]
            for name, entries in metrics["gauges"].items()
            if entries and not entries[0]["labels"]
        }
        assert 0.0 <= gauges["pool.hit_rate"] <= 1.0
        assert gauges["accounting.ok"] == 1.0
        assert math.isfinite(gauges["drift.overall_geo_mean_ratio"])
        # Latency histograms cover every executed operation.
        latency_count = sum(
            entry["count"] for entry in metrics["histograms"]["op.latency_ms"]
        )
        assert latency_count == TINY.ops

    def test_drift_report_embedded(self, tiny):
        drift = tiny[0].drift.report()
        assert drift["overall"]["count"] == TINY.ops
        assert drift["overall"]["finite"] is True
        for entry in drift["by_key"]:
            assert {"extension", "decomposition", "op", "geo_mean_ratio"} <= set(entry)
            assert math.isfinite(entry["geo_mean_ratio"])
        # A per-(extension, decomposition) predicted-vs-observed ratio
        # is reported.
        assert any(
            entry["ratio"] is not None or entry["skipped"] == entry["count"]
            for entry in drift["by_key"]
        )

    def test_stats_registry_round_trips_from_report(self, tiny):
        from repro.telemetry import MetricsRegistry

        restored = MetricsRegistry.from_snapshot(tiny[0].registry.snapshot())
        text = restored.render_prometheus()
        assert "repro_pool_hit_rate" in text
        assert "repro_op_latency_ms_count" in text


class TestAsyncServeBench:
    #: Small pool + slow device: operations fault real pages, so the
    #: core has device waits to overlap past ``clients``.
    TINY_ASYNC = ServeConfig(
        clients=2,
        ops=24,
        seed=7,
        capacity=16,
        io_micros=2000.0,
        max_inflight=16,
    )

    @pytest.fixture(scope="class")
    def slow(self):
        return replay(self.TINY_ASYNC)

    def test_async_report_shape_and_accounting(self, slow):
        world, core, samples = slow
        assert core.limit == 16
        assert core.device.describe() == {"dist": "fixed", "io_micros": 2000.0}
        # One replay: every stream operation ran exactly once, and the
        # shared totals equal retired + Σ live per-worker totals.
        assert len(samples) == self.TINY_ASYNC.ops
        assert world.pool.check_accounting()["ok"] is True
        assert world.drift.report()["overall"]["finite"] is True

    def test_async_overlaps_more_inflight_than_clients(self, slow):
        # The event loop holds more operations in flight than there
        # are executor threads (an operation awaiting its device charge
        # holds no thread), bounded by the admission limit.
        _world, core, _samples = slow
        assert self.TINY_ASYNC.clients < core.peak_inflight <= 16

    def test_zero_clients_replays_nothing(self):
        world, core, samples = replay(
            ServeConfig(clients=0, ops=8, seed=7, capacity=64)
        )
        assert samples == [] and core.peak_inflight == 0
        assert "op.latency_ms" not in world.registry.snapshot()["histograms"]
        assert world.pool.check_accounting()["ok"] is True

    def test_io_dist_flows_into_device_section(self):
        config = ServeConfig(
            clients=2,
            ops=12,
            seed=7,
            capacity=64,
            io_micros=100.0,
            io_dist="lognormal:0.3",
            max_inflight=8,
        )
        world, core, samples = replay(config)
        device = core.device.describe()
        assert device["dist"] == "lognormal" and device["sigma"] == 0.3
        assert len(samples) == 12
        assert world.pool.check_accounting()["ok"] is True


class TestServeProfiles:
    def test_known_profiles_resolve(self):
        profile, mix = ServeConfig(profile="fig14").resolved_profile()
        assert profile is SERVE_PROFILES["fig14"][0]
        profile16, _ = ServeConfig(profile="fig16").resolved_profile()
        assert len(profile16.c) == 6  # the n = 5 Figure 16 chain

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown serve profile"):
            ServeConfig(profile="fig99").resolved_profile()

    def test_fig16_serves_end_to_end(self):
        config = ServeConfig(
            clients=2, ops=16, seed=3, capacity=64, io_micros=20.0, profile="fig16"
        )
        world, _core, samples = replay(config)
        assert world.generated.n == 5
        assert len(samples) == 16
        assert world.pool.check_accounting()["ok"] is True
        assert world.drift.report()["overall"]["finite"] is True


class TestExecutorWorkers:
    """The one serving-context path: ``pool.context()`` per operation."""

    def make_world(self, ops):
        return build_world(ServeConfig(clients=4, ops=ops, seed=7, capacity=64))

    def test_every_operation_borrows_and_retires_its_context(self):
        world = self.make_world(200)
        pool = world.pool
        workers = ExecutorWorkers(world, 4)
        pages = list(workers.executor.map(workers.execute, world.stream()))
        workers.close()
        assert len(pages) == 200 and sum(pages) > 0
        # Only the manager's context outlives the run.
        assert pool.contexts == [world.manager.context]
        assert pool.recycled == 200
        assert pool.check_accounting()["ok"] is True
        # Every charged page is one miss of the one shared pool.
        assert pool.stats.total == pool.pool.misses
        pool.pool.check_invariants()
        world.manager.check_consistency()

    def test_faulted_operation_still_releases_its_context(self):
        world = self.make_world(8)
        pool = world.pool
        workers = ExecutorWorkers(world, 1)
        query = next(op for op in world.stream() if op.kind == "query")
        pool.pool.evict_all()
        pool.pool.injector = FaultInjector(read_fault_rate=1.0)
        with pytest.raises(InjectedFault):
            workers.executor.submit(workers.execute, query).result()
        pool.pool.injector = None
        assert pool.contexts == [world.manager.context]
        assert pool.recycled == 1
        assert workers.executor.submit(workers.execute, query).result() > 0
        workers.close()
        assert pool.recycled == 2
        assert pool.check_accounting()["ok"] is True
