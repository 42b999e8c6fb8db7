"""A run of touches is that many single touches, decided under one hold.

``touch_many(page_ids, category)`` is the buffer protocol's run: the
shared pool decides every page of it under one acquire of its lock,
and a worker scope charges the run's reads to its own record once.
None of that may show in what the pool ends up holding: for any
interleaving of ``touch``, ``touch_write`` and runs — repeats inside a
run, runs longer than the pool — the LIRS state, the counters and the
stats equal those of the same pages touched one at a time.  A fault at
the k-th charged read ends a run exactly where the per-page loop stops.

The readers that charge whole runs (``BPlusTree.column_probe``,
``ClusteredObjectStore.scan_type``) hand their buffer the very
``(page_id, category)`` sequence the per-page walk did.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concurrency import ContextPool
from repro.errors import InjectedFault
from repro.gom.objects import OID
from repro.storage.btree import BPlusTree
from repro.storage.objectstore import ClusteredObjectStore
from repro.storage.stats import AccessStats, BufferScope, NullBuffer, SharedBufferPool

from tests.storage.reference_walker import RecordingBuffer


class FaultAtRead:
    """Raises :class:`InjectedFault` on the ``k``-th charged read only."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.reads = 0

    def on_read(self, page_id, category: str = "page") -> None:
        self.reads += 1
        if self.reads == self.k:
            raise InjectedFault(f"read {self.k} faulted on {page_id!r} ({category})")

    def on_write(self, page_id, category: str = "page") -> None:
        return None


def pool_state(pool: SharedBufferPool) -> tuple:
    return (
        list(pool._stack),
        list(pool._lir.items()),
        list(pool._hir.items()),
        list(pool._ghosts),
        pool._bottom,
        pool.hits,
        pool.misses,
        pool.evictions,
        pool.stats.page_reads,
        pool.stats.page_writes,
        dict(pool.stats.by_category),
    )


def one_at_a_time(buffer, page_ids, category) -> int:
    return sum(buffer.touch(page_id, category) for page_id in page_ids)


def apply(buffer, ops, run) -> list:
    """Apply ``ops``; ``run`` charges a run.  Returns results and faults."""
    results = []
    for kind, payload, category in ops:
        try:
            if kind == "touch":
                results.append(buffer.touch(payload, category))
            elif kind == "write":
                results.append(buffer.touch_write(payload, category))
            else:
                results.append(run(buffer, payload, category))
        except InjectedFault as fault:
            results.append(str(fault))
    return results


def as_run(buffer, page_ids, category) -> int:
    return buffer.touch_many(page_ids, category)


@st.composite
def workloads(draw):
    capacity = draw(st.integers(1, 12))
    page = st.integers(0, 3 * capacity)
    category = st.sampled_from(["a", "b"])
    op = st.one_of(
        st.tuples(st.just("touch"), page, category),
        st.tuples(st.just("write"), page, category),
        st.tuples(st.just("run"), st.lists(page, max_size=4 * capacity + 2), category),
    )
    return capacity, draw(st.lists(op, max_size=40))


@settings(max_examples=200, deadline=None)
@given(workloads())
def test_a_run_leaves_the_pool_as_single_touches_do(workload):
    capacity, ops = workload
    by_run = SharedBufferPool(AccessStats(), capacity)
    by_page = SharedBufferPool(AccessStats(), capacity)
    assert apply(by_run, ops, as_run) == apply(by_page, ops, one_at_a_time)
    assert pool_state(by_run) == pool_state(by_page)
    by_run.check_invariants()


@settings(max_examples=200, deadline=None)
@given(workloads(), st.integers(1, 40))
def test_a_fault_ends_a_run_where_the_page_loop_stops(workload, k):
    capacity, ops = workload
    by_run = SharedBufferPool(AccessStats(), capacity, FaultAtRead(k))
    by_page = SharedBufferPool(AccessStats(), capacity, FaultAtRead(k))
    assert apply(by_run, ops, as_run) == apply(by_page, ops, one_at_a_time)
    assert pool_state(by_run) == pool_state(by_page)
    assert by_run.injector.reads == by_page.injector.reads
    by_run.check_invariants()


@settings(max_examples=100, deadline=None)
@given(workloads(), st.integers(1, 40))
def test_a_faulted_run_keeps_the_worker_accounting_exact(workload, k):
    capacity, ops = workload
    reference = SharedBufferPool(AccessStats(), capacity, FaultAtRead(k))
    expected = apply(reference, ops, one_at_a_time)
    pool = ContextPool(capacity, fault_injector=FaultAtRead(k))
    with pool.context() as context:
        assert apply(context.current_buffer, ops, as_run) == expected
        assert pool.check_accounting()["ok"]
        assert context.stats == reference.stats
    assert pool.check_accounting()["ok"]
    assert pool.stats.snapshot() == reference.stats
    pool.pool.check_invariants()


@pytest.mark.parametrize("make", [BufferScope, NullBuffer], ids=["scope", "null"])
@settings(max_examples=100, deadline=None)
@given(workload=workloads(), k=st.integers(0, 40))
def test_scope_and_null_runs_match_their_page_loops(make, workload, k):
    _capacity, ops = workload
    by_run = make(AccessStats(), FaultAtRead(k) if k else None)
    by_page = make(AccessStats(), FaultAtRead(k) if k else None)
    assert apply(by_run, ops, as_run) == apply(by_page, ops, one_at_a_time)
    assert by_run.stats == by_page.stats


def per_page_probe(tree, buffer) -> None:
    """The whole-tree walk of ``column_probe``, a page at a time."""
    leaf = tree._leftmost_leaf(buffer)
    while leaf is not None:
        buffer.touch(id(leaf), "btree_leaf")
        leaf = leaf.next


@pytest.mark.parametrize("size", [0, 1, 5, 40, 400])
def test_column_probe_touches_what_the_page_walk_touched(size):
    tree = BPlusTree.bulk_load(
        [((k,), (k, k % 7)) for k in range(size)], leaf_capacity=4, interior_capacity=3
    )
    probe, walk = RecordingBuffer(), RecordingBuffer()
    rows = tree.column_probe(1, {3}, probe)
    per_page_probe(tree, walk)
    assert probe.touched == walk.touched
    assert rows == [(k, k % 7) for k in range(size) if k % 7 == 3]
    if size == 400:
        categories = [category for _page, category in probe.touched]
        assert categories[: tree.height - 1] == ["btree_interior"] * (tree.height - 1)


def test_scan_type_touches_what_the_page_loop_touched():
    store = ClusteredObjectStore({"Small": 100})
    for number in range(200):
        store.register(OID(number), "Small")
    scan = RecordingBuffer()
    store.scan_type("Small", scan)
    pages = store.pages_of_type("Small")
    assert pages > 1
    assert scan.touched == [(("obj", "Small", page), "object") for page in range(pages)]
