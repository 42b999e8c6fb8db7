"""ExecutionContext: buffers, measured operations, hooks, export, buffer shim."""

import json

import pytest

from repro.context import ExecutionContext, resolve_buffer
from repro.storage.btree import BPlusTree
from repro.storage.stats import (
    AccessStats,
    BufferScope,
    NullBuffer,
    SharedBufferPool,
)


class TestPolicies:
    """Two regimes: a fresh scope per operation, or the buffer you pass."""

    def test_unknown_policy_rejected(self):
        # No policy names any more, and no alias left behind for them.
        for removed in (
            {"policy": "bounded"},
            {"stats": AccessStats()},
            {"shared_buffer": NullBuffer(AccessStats())},
        ):
            with pytest.raises(TypeError):
                ExecutionContext(**removed)

    def test_capacity_only_for_bounded(self):
        # Capacity is the bounded pool's, not a keyword of the context.
        with pytest.raises(TypeError):
            ExecutionContext(capacity=8)
        assert ExecutionContext().to_dict()["capacity"] is None
        pool = SharedBufferPool(AccessStats(), 8)
        assert ExecutionContext(buffer=pool).to_dict()["capacity"] == 8

    def test_unbounded_scopes_are_fresh_per_operation(self):
        context = ExecutionContext()
        with context.operation("a") as buffer:
            assert type(buffer) is BufferScope
            buffer.touch("p1")
        with context.operation("b") as buffer:
            buffer.touch("p1")  # new scope: charged again
        assert context.stats.page_reads == 2

    def test_bounded_pool_survives_operations(self):
        pool = SharedBufferPool(AccessStats(), 8)
        context = ExecutionContext(buffer=pool)
        assert context.stats is pool.stats
        assert context.current_buffer is pool  # the ambient scope too
        with context.operation("a") as buffer:
            assert buffer is pool
            buffer.touch("p1")
        with context.operation("b") as buffer:
            buffer.touch("p1")  # still resident in the supplied pool
        assert context.stats.page_reads == 1
        assert (pool.hits, pool.misses) == (1, 1)

    def test_null_policy_charges_every_touch(self):
        null = NullBuffer(AccessStats())
        context = ExecutionContext(buffer=null)
        with context.operation("a") as buffer:
            assert buffer is null
            buffer.touch("p1")
            buffer.touch("p1")
        assert context.stats is null.stats
        assert context.stats.page_reads == 2


class TestSpans:
    def test_operation_records_delta(self, trace):
        context = ExecutionContext()
        with context.operation("load") as buffer:
            buffer.touch("p1", "object")
            buffer.touch_write("p2", "object")
        (row,) = trace.spans
        assert row["name"] == "load"
        assert (row["page_reads"], row["page_writes"]) == (1, 1)
        assert row["by_category"] == {"object": 1, "object:write": 1}
        assert row["duration_ms"] >= 0.0  # seconds and pages on one row
        assert context.op_counts == {"load": 1}

    def test_measure_hands_back_the_delta(self):
        context = ExecutionContext()
        with context.measure("load") as measured:
            measured.buffer.touch("p1", "object")
            assert measured.delta is None  # set when the block closes
        assert (measured.delta.page_reads, measured.delta.total) == (1, 1)

    def test_nested_spans_share_parent_delta(self, trace):
        context = ExecutionContext()
        with context.operation("outer") as outer:
            outer.touch("p1")
            with context.operation("inner") as inner:
                inner.touch("p2")
        outer_row, inner_row = trace.spans  # opening order
        assert inner_row["name"] == "inner" and inner_row["parent"] == 0
        assert inner_row["page_reads"] == 1
        assert outer_row["name"] == "outer" and outer_row["parent"] is None
        assert outer_row["page_reads"] == 2  # child accesses included

    def test_current_buffer_tracks_operation(self):
        context = ExecutionContext()
        ambient = context.current_buffer
        with context.operation("op") as buffer:
            assert context.current_buffer is buffer
            assert buffer is not ambient
        assert context.current_buffer is ambient


class TestSpanRing:
    def test_count_mirrors_into_registry(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        context = ExecutionContext(metrics=registry)
        context.count("plan.supported")
        context.count("plan.supported", 2)
        assert context.op_counts["plan.supported"] == 3
        assert registry.counter_value("ops", op="plan.supported") == 3

    def test_spans_publish_histograms_and_drops(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        context = ExecutionContext(metrics=registry)
        for _ in range(3):
            with context.operation("probe") as buffer:
                buffer.touch("p")
        assert registry.histogram("span.pages", op="probe").count == 3

    def test_snapshot_metrics_interleaves_with_trace(self, trace):
        from repro.telemetry import MetricsRegistry

        context = ExecutionContext(metrics=MetricsRegistry())
        entry = context.snapshot_metrics("start")
        assert entry["at_span"] == 0 and entry["label"] == "start"
        with context.operation("op"):
            pass
        context.snapshot_metrics("end")
        exported = context.to_dict()
        assert [s["at_span"] for s in exported["metric_snapshots"]] == [0, 1]
        # The second snapshot already sees the completed operation.
        end = exported["metric_snapshots"][1]["metrics"]
        assert end["counters"]["ops"][0]["value"] == 1

    def test_snapshot_metrics_without_registry_is_a_noop(self):
        context = ExecutionContext()
        assert context.snapshot_metrics("ignored") is None
        assert "metric_snapshots" not in context.to_dict()


class TestLifetime:
    def test_exit_hooks_run_lifo_once(self):
        order = []
        context = ExecutionContext()
        context.add_exit_hook(lambda: order.append("first"))
        context.add_exit_hook(lambda: order.append("second"))
        context.close()
        context.close()
        assert order == ["second", "first"]
        assert context.closed

    def test_with_block_closes(self):
        ran = []
        with ExecutionContext() as context:
            context.add_exit_hook(lambda: ran.append(True))
        assert ran == [True]


class TestExitHookFailures:
    """Regression: a raising hook used to leave the remaining hooks un-run
    (and the context marked open, so a retried close re-ran the failer)."""

    @staticmethod
    def _raiser(message):
        def hook():
            raise RuntimeError(message)

        return hook

    def test_later_hooks_still_run_after_a_failure(self):
        ran = []
        context = ExecutionContext()
        context.add_exit_hook(lambda: ran.append("first"))  # LIFO: runs last
        context.add_exit_hook(self._raiser("boom"))
        context.add_exit_hook(lambda: ran.append("third"))  # LIFO: runs first
        with pytest.raises(RuntimeError, match="boom"):
            context.close()
        assert ran == ["third", "first"]
        assert context.closed

    def test_single_failure_reraised_as_itself(self):
        context = ExecutionContext()
        context.add_exit_hook(self._raiser("only"))
        with pytest.raises(RuntimeError, match="only"):
            context.close()

    def test_multiple_failures_aggregate(self):
        from repro.errors import ExitHookError

        ran = []
        context = ExecutionContext()
        context.add_exit_hook(self._raiser("first-registered"))
        context.add_exit_hook(lambda: ran.append("middle"))
        context.add_exit_hook(self._raiser("last-registered"))
        with pytest.raises(ExitHookError) as excinfo:
            context.close()
        assert ran == ["middle"]
        errors = excinfo.value.errors
        assert [str(e) for e in errors] == ["last-registered", "first-registered"]
        assert excinfo.value.__cause__ is errors[0]
        assert "2 exit hook(s) failed" in str(excinfo.value)

    def test_failed_close_is_still_final(self):
        calls = []

        def failing():
            calls.append("ran")
            raise RuntimeError("once")

        context = ExecutionContext()
        context.add_exit_hook(failing)
        with pytest.raises(RuntimeError):
            context.close()
        context.close()  # second close must be a no-op
        assert calls == ["ran"]
        assert context.closed


class TestExport:
    def test_to_dict_round_trips_through_json(self):
        context = ExecutionContext()
        with context.operation("q") as buffer:
            buffer.touch("p1", "btree_leaf")
        data = json.loads(json.dumps(context.to_dict()))
        assert "policy" not in data
        assert data["capacity"] is None  # per-operation scopes are unbounded
        assert data["page_reads"] == 1
        assert data["total_pages"] == 1
        assert data["op_counts"] == {"q": 1}
        assert data["by_category"] == {"btree_leaf": 1}
        assert "spans" not in data  # the rows live in the trace, not here


class TestResolveBuffer:
    def test_none_passes_through(self):
        assert resolve_buffer() is None

    def test_raw_scope_passes_through(self):
        scope = BufferScope(AccessStats())
        assert resolve_buffer(scope) is scope

    def test_context_yields_current_buffer(self):
        context = ExecutionContext()
        with context.operation("op") as buffer:
            assert resolve_buffer(context) is buffer

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            resolve_buffer(object())


class TestThreadingThroughStorage:
    def test_btree_charges_context(self, trace):
        context = ExecutionContext()
        tree = BPlusTree(4, 4)
        with context.operation("build"):
            for key in range(20):
                tree.insert(key, key, context)
        with context.operation("probe"):
            assert tree.search(7, context) == 7
        build, probe = trace.spans
        assert build["page_writes"] > 0
        assert probe["page_reads"] > 0
        assert context.stats.total == sum(
            row["page_reads"] + row["page_writes"] for row in trace.spans
        )

    def test_bare_context_uses_ambient_scope(self, trace):
        context = ExecutionContext()
        tree = BPlusTree(4, 4)
        tree.insert(1, "one", context)
        assert tree.search(1, context) == "one"
        assert context.stats.total > 0
        assert trace.spans == []  # no operation was opened
