"""One span model (DESIGN §14): every measured interval is one trace row.

A row carries seconds *and* pages; ``ExecutionContext.measure`` is the
one producer of page rows, into the thread-active trace; with no trace
active nothing is timed and nothing is retained.
"""

import types

import pytest

from repro.bench.serve import ServeConfig, build_world, execute_operation
from repro.context import ExecutionContext
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.query import QueryEvaluator
from repro.telemetry import tracing
from repro.telemetry.tracing import LAYERS, Trace, activate
from repro.workload.opstream import apply_update, operation_stream
from repro.workload.profiles import FIG14_MIX

LAYER_PREFIXES = tuple(f"{layer}." for layer in LAYERS)


def measured_pages(rows: list[dict]) -> int:
    """Σ pages over the top-level measured rows: what the request was charged.

    A measured row nested inside another measured row is already part of
    its ancestor's delta, so only rows without a measured ancestor count.
    """
    total = 0
    for row in rows:
        if "page_reads" not in row:
            continue
        parent = row["parent"]
        while parent is not None and "page_reads" not in rows[parent]:
            parent = rows[parent]["parent"]
        if parent is None:
            total += row["page_reads"] + row["page_writes"]
    return total


@pytest.fixture()
def world():
    built = build_world(
        ServeConfig(clients=1, ops=48, seed=7, profile="queries", query_fraction=0.5)
    )
    yield built
    built.manager.close()


def chain_ops(world, kind: str) -> list:
    """Bound ``Q_{i,j}`` / ``ins_i`` operations over the world's chain."""
    stream = operation_stream(
        world.generated, FIG14_MIX, count=48, seed=7, query_fraction=0.5
    )
    return [op for op in stream if op.kind == kind]


def run_traced(world, op) -> tuple[Trace, int]:
    trace = Trace("t-1", op.name, op.kind, sampled=True)
    with world.pool.context() as context, activate(trace):
        evaluator = QueryEvaluator(
            world.generated.db, world.generated.store, context=context
        )
        pages = execute_operation(
            world, context, world.planner, evaluator, op, trace=trace
        )
    return trace, pages


class TestPageConservation:
    def test_supported_query_leaves_exactly_one_measured_row(self, world):
        op = chain_ops(world, "query")[0]
        trace, pages = run_traced(world, op)
        assert pages > 0
        assert [row["name"] for row in trace.spans] == [
            "query.plan",
            "query.evaluate",
            f"query.supported.{op.query.kind}",
        ]
        (measured,) = [row for row in trace.spans if "page_reads" in row]
        # Seconds and pages on the same row, naming the ASR that served it.
        assert measured["page_reads"] + measured["page_writes"] == pages
        assert measured["duration_ms"] is not None
        assert measured["asr"].startswith("full:")
        assert measured_pages(trace.spans) == pages

    def test_update_row_carries_the_pages_returned(self, world):
        op = chain_ops(world, "update")[0]
        trace, pages = run_traced(world, op)
        assert pages > 0
        (row,) = trace.spans
        assert (row["name"], row["phase"]) == ("asr.maintain", "execute")
        assert row["page_reads"] + row["page_writes"] == pages

    def test_textual_select_rows_sum_to_the_report(self, world):
        op = next(op for op in world.stream() if op.kind == "select")
        trace, pages = run_traced(world, op)
        assert pages > 0
        assert measured_pages(trace.spans) == pages == trace.annotations["pages"]


class TestVocabulary:
    def test_every_row_name_is_layer_dot_what(self, world):
        names = set()
        updates = chain_ops(world, "update")
        for op in chain_ops(world, "query") + updates[:4] + world.stream():
            trace, _pages = run_traced(world, op)
            names.update(row["name"] for row in trace.spans)
        # Batched maintenance and recovery are operations of the
        # manager's context: rows for free while a trace is active.
        manager = world.manager
        injector = manager.fault_injector = FaultInjector(seed=0)
        trace = Trace("t-2", "maintenance", "test", sampled=True)
        with activate(trace):
            with manager.batch():
                apply_update(world.generated, updates[4])
            injector.crash_at("asr.flush.mid-delta")
            with pytest.raises(SimulatedCrash):
                with manager.batch():
                    apply_update(world.generated, updates[5])
            assert manager.recover() >= 1
        maintenance = [row["name"] for row in trace.spans]
        assert {"asr.flush", "asr.recover"} <= set(maintenance)
        assert all("page_reads" in row for row in trace.spans)
        names.update(maintenance)
        assert {"query.plan", "query.evaluate", "query.run_compiled"} <= names
        assert {"query.cache.probe", "query.compile", "asr.maintain"} <= names
        strays = sorted(n for n in names if not n.startswith(LAYER_PREFIXES))
        assert not strays, f"row names outside <layer>.<what>: {strays}"
        manager.check_consistency()


class TestOffMeansOff:
    def test_no_clock_is_read_without_an_active_trace(self, world, monkeypatch):
        def clock():
            raise AssertionError("clock read with tracing off")

        monkeypatch.setattr(
            tracing, "time", types.SimpleNamespace(perf_counter=clock, time=clock)
        )
        op = chain_ops(world, "query")[0]
        asr = world.planner.plan(op.query).asr
        with world.pool.context() as context:
            evaluator = QueryEvaluator(
                world.generated.db, world.generated.store, context=context
            )
            result = evaluator.evaluate_supported(op.query, asr)
        assert result.total_pages > 0

    def test_operations_leave_nothing_behind_on_the_context(self):
        context = ExecutionContext()

        def sizes() -> dict:
            return {
                name: len(value)
                for name, value in vars(context).items()
                if hasattr(value, "__len__")
            }

        with context.operation("op"):
            pass
        before = sizes()
        for _ in range(1000):
            with context.operation("op") as buffer:
                buffer.touch("p")
        assert sizes() == before
