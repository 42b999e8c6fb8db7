"""The LIRS shared pool against the LRU it replaced.

Whenever a trace's distinct pages fit the pool nothing is ever evicted,
and the replacement policy cannot matter: LIRS must then count exactly
what :class:`~tests.storage.reference_lru.ReferenceLRUPool` counts.  On
any trace the pool's own bookkeeping must hold after every touch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.stats import AccessStats, SharedBufferPool

from tests.storage.reference_lru import ReferenceLRUPool, replay

traces = st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=300)


def counts(pool) -> tuple:
    stats = pool.stats
    return (pool.hits, pool.misses, pool.evictions, stats.page_reads, stats.page_writes)


@settings(max_examples=200, deadline=None)
@given(traces, st.integers(0, 4))
def test_fitting_traces_count_like_lru(trace, slack):
    capacity = max(1, len({page for page, _ in trace})) + slack
    lirs = SharedBufferPool(AccessStats(), capacity)
    lru = ReferenceLRUPool(AccessStats(), capacity)
    replay(lirs, trace)
    replay(lru, trace)
    assert counts(lirs) == counts(lru)
    assert lirs.evictions == 0
    assert lirs.distinct_pages == lru.distinct_pages


@settings(max_examples=200, deadline=None)
@given(traces, st.integers(1, 12))
def test_any_trace_keeps_the_invariants(trace, capacity):
    stats = AccessStats()
    pool = SharedBufferPool(stats, capacity)
    for page_id, is_write in trace:
        replay(pool, [(page_id, is_write)])
        pool.check_invariants()
    assert pool.hits + pool.misses == len(trace)
    assert pool.misses == stats.total
    assert pool.distinct_pages <= capacity
