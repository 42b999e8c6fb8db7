"""Regression: B+ tree range scans charge at consumption time.

``BPlusTree.range`` is a lazy generator, but it used to resolve the
context's *current* buffer eagerly at call time.  A range created inside
one operation span and iterated inside another then charged the span
that merely created it — and a consumed scan could look free in the span
that actually did the reading.
"""

import pytest

from repro.context import ExecutionContext
from repro.storage.btree import BPlusTree
from repro.storage.stats import AccessStats, BufferScope


def make_tree(entries: int = 200) -> BPlusTree:
    tree = BPlusTree(leaf_capacity=8, interior_capacity=8)
    for key in range(entries):
        tree.insert(key, key * 10)
    return tree


class TestDeferredRangeCharging:
    def test_consuming_span_is_charged_not_creating_span(self, trace):
        tree = make_tree()
        context = ExecutionContext()
        with context.operation("create"):
            scan = tree.range(0, 150, context)
        with context.operation("consume"):
            consumed = list(scan)
        assert len(consumed) == 150
        create_span = next(s for s in trace.spans if s["name"] == "create")
        consume_span = next(s for s in trace.spans if s["name"] == "consume")
        assert create_span["page_reads"] == 0
        assert consume_span["page_reads"] > 0

    def test_unconsumed_range_charges_nothing(self):
        tree = make_tree()
        context = ExecutionContext()
        with context.operation("span"):
            tree.range(0, 150, context)
        assert context.stats.page_reads == 0

    def test_partially_consumed_range_charges_less_than_full(self):
        tree = make_tree()
        full_context = ExecutionContext()
        list(tree.range(None, None, full_context))
        partial_context = ExecutionContext()
        scan = tree.range(None, None, partial_context)
        for _ in range(5):
            next(scan)
        assert 0 < partial_context.stats.page_reads < full_context.stats.page_reads

    def test_total_charges_match_eager_buffer_path(self):
        tree = make_tree()
        context = ExecutionContext()
        with context.operation("scan"):
            rows_lazy = list(tree.range(10, 90, context))
        stats = AccessStats()
        rows_eager = list(tree.range(10, 90, BufferScope(stats)))
        assert rows_lazy == rows_eager
        assert context.stats.page_reads == stats.page_reads

    def test_scan_created_in_warm_span_still_charges_consuming_span(self, trace):
        # The regression proper: under eager resolution the scan kept the
        # creating span's buffer scope, whose residency made a later
        # consumption in a fresh span look free.
        tree = make_tree()
        context = ExecutionContext()
        with context.operation("warm"):
            list(tree.range(0, 150, context))  # warms this span's scope
            scan = tree.range(0, 150, context)  # created now, consumed later
        with context.operation("cold"):
            consumed = list(scan)
        assert len(consumed) == 150
        cold = next(s for s in trace.spans if s["name"] == "cold")
        assert cold["page_reads"] > 0

    def test_raw_buffer_scope_still_honoured(self):
        tree = make_tree()
        stats = AccessStats()
        buffer = BufferScope(stats)
        assert list(tree.range(0, 20, buffer))
        assert stats.page_reads > 0

    def test_interleaved_consumption_splits_charges_between_spans(self, trace):
        tree = make_tree()
        context = ExecutionContext()
        scan = tree.range(None, None, context)
        with context.operation("first-half"):
            for _ in range(100):
                next(scan)
        with context.operation("second-half"):
            with pytest.raises(StopIteration):
                while True:
                    next(scan)
        first = next(s for s in trace.spans if s["name"] == "first-half")
        second = next(s for s in trace.spans if s["name"] == "second-half")
        assert first["page_reads"] > 0
        assert second["page_reads"] > 0
