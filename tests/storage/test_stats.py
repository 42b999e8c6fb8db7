"""Page-access accounting: counters, buffers, deltas."""

import random

import pytest

from repro.storage.stats import (
    AccessStats,
    BufferScope,
    NullBuffer,
    SharedBufferPool,
)


class TestAccessStats:
    def test_counts_and_categories(self):
        stats = AccessStats()
        stats.read(2, "object")
        stats.write(1, "btree_leaf")
        assert stats.page_reads == 2
        assert stats.page_writes == 1
        assert stats.total == 3
        assert stats.by_category == {"object": 2, "btree_leaf:write": 1}

    def test_snapshot_and_delta(self):
        stats = AccessStats()
        stats.read(3, "object")
        before = stats.snapshot()
        stats.read(2, "object")
        stats.write(1, "object")
        delta = stats.delta_since(before)
        assert delta.page_reads == 2
        assert delta.page_writes == 1
        assert delta.by_category == {"object": 2, "object:write": 1}

    def test_snapshot_is_independent(self):
        stats = AccessStats()
        snap = stats.snapshot()
        stats.read()
        assert snap.page_reads == 0


class TestBufferScope:
    def test_distinct_pages_charged_once(self):
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            assert buffer.touch("p1") is True
            assert buffer.touch("p1") is False
            assert buffer.touch("p2") is True
        assert stats.page_reads == 2
        assert buffer.distinct_pages == 2

    def test_writes_charged_once(self):
        stats = AccessStats()
        buffer = BufferScope(stats)
        assert buffer.touch_write("p1") is True
        assert buffer.touch_write("p1") is False
        assert stats.page_writes == 1

    def test_scopes_are_independent(self):
        stats = AccessStats()
        with BufferScope(stats) as b1:
            b1.touch("p1")
        with BufferScope(stats) as b2:
            b2.touch("p1")
        assert stats.page_reads == 2  # new scope, new charge

    def test_evict_all(self):
        stats = AccessStats()
        buffer = BufferScope(stats)
        buffer.touch("p1")
        buffer.evict_all()
        buffer.touch("p1")
        assert stats.page_reads == 2


class TestNullBuffer:
    def test_every_touch_charged(self):
        stats = AccessStats()
        buffer = NullBuffer(stats)
        buffer.touch("p1")
        buffer.touch("p1")
        buffer.touch_write("p1")
        assert stats.page_reads == 2
        assert stats.page_writes == 1


class TestBoundedBufferScope:
    """The bounded LIRS pool — :class:`SharedBufferPool`, single-threaded.

    At ``capacity=2`` the pool has one LIR frame and one HIR frame: the
    first page takes the LIR frame, later pages cycle through the HIR
    frame, and an HIR page re-touched while still in the recency stack
    swaps places with the LIR page.
    """

    def test_within_capacity_behaves_like_plain_buffer(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=10)
        assert buffer.touch("p1") is True
        assert buffer.touch("p1") is False
        assert stats.page_reads == 1
        assert (buffer.hits, buffer.misses) == (1, 1)

    def test_eviction_recharges(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        buffer.touch("p1")  # the LIR frame
        buffer.touch("p2")  # the HIR frame
        buffer.touch("p3")  # evicts p2, the HIR page, not the older p1
        assert buffer.touch("p2") is True  # recharged
        assert stats.page_reads == 4
        assert buffer.evictions == 2

    def test_lru_recency_refresh(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        buffer.touch("p1")
        buffer.touch("p2")
        buffer.touch("p2")  # re-touched in the stack: p2 turns LIR, p1 HIR
        buffer.touch("p3")  # evicts p1
        assert buffer.touch("p2") is False
        assert buffer.touch("p1") is True

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SharedBufferPool(AccessStats(), capacity=0)

    def test_distinct_pages_bounded(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=3)
        for page in range(10):
            buffer.touch(page)
        assert buffer.distinct_pages == 3
        buffer.evict_all()
        assert buffer.distinct_pages == 0

    def test_write_enters_residency(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        assert buffer.touch_write("p1") is True
        assert buffer.touch_write("p1") is False  # dirty and resident
        assert buffer.touch("p1") is False  # a write makes the page resident
        assert stats.page_writes == 1
        assert stats.page_reads == 0

    def test_write_refreshes_lru_recency(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        buffer.touch("p1")
        buffer.touch("p2")
        buffer.touch_write("p2")  # a write is a touch: p2 turns LIR, p1 HIR
        buffer.touch("p3")  # evicts p1, not p2
        assert buffer.touch("p2") is False
        assert buffer.touch("p1") is True

    def test_evicted_dirty_page_recharges_on_rewrite(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        buffer.touch("p1")
        buffer.touch_write("p2")
        buffer.touch("p3")  # evicts p2, the HIR page, with its dirty flag
        assert buffer.touch_write("p2") is True  # write charged again
        assert stats.page_writes == 2
        assert buffer.misses == stats.total  # one miss per charged page

    def test_read_after_write_keeps_dirty_flag(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=4)
        buffer.touch_write("p1")
        buffer.touch("p1")  # read must not launder the dirty state
        assert buffer.touch_write("p1") is False  # still dirty: no new charge
        assert stats.page_writes == 1

    def test_evictions_counted(self):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity=2)
        for page in range(5):
            buffer.touch(page)
        assert buffer.evictions == 3

    @pytest.mark.parametrize("capacity", [2, 3, 8, 128, 200])
    @pytest.mark.parametrize("extra", [1, 5, 40])
    def test_cyclic_scan_keeps_a_resident_subset(self, capacity, extra):
        # Under LRU a loop one page longer than the pool never hits.
        buffer = SharedBufferPool(AccessStats(), capacity)
        floor = capacity - max(1, capacity // 100) - 1
        for scan in range(4):
            hits = buffer.hits
            for page in range(capacity + extra):
                buffer.touch(page)
            if scan:
                assert buffer.hits - hits >= floor
        buffer.check_invariants()

    @pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "repeated"])
    def test_hot_page_survives_scans(self, fresh):
        buffer = SharedBufferPool(AccessStats(), capacity=16)
        buffer.touch("hot")
        for scan in range(6):
            for page in range(40):
                buffer.touch((scan if fresh else 0, page))
            assert buffer.touch("hot") is False
        buffer.check_invariants()

    def test_capacity_one_has_no_lir_set(self):
        buffer = SharedBufferPool(AccessStats(), capacity=1)
        assert buffer.lir_capacity == 0
        assert buffer.touch("p1") is True
        assert buffer.touch("p1") is False
        assert buffer.touch_write("p1") is True  # clean resident: charged
        assert buffer.touch("p2") is True  # evicts the dirty p1
        assert buffer.touch_write("p1") is True
        assert (buffer.hits, buffer.misses, buffer.evictions) == (1, 4, 2)
        assert buffer.distinct_pages == 1
        assert not buffer._lir and not buffer._stack and not buffer._ghosts
        buffer.check_invariants()

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_tiny_capacities_stay_sane(self, capacity):
        stats = AccessStats()
        buffer = SharedBufferPool(stats, capacity)
        rng = random.Random(capacity)
        for _ in range(500):
            page = rng.randrange(6)
            if rng.random() < 0.3:
                buffer.touch_write(page)
            else:
                buffer.touch(page)
            buffer.check_invariants()
            assert buffer.distinct_pages <= capacity
        assert buffer.hits + buffer.misses == 500
        assert buffer.misses == stats.total

    def test_ghosts_never_exceed_capacity(self):
        # Seven hot LIR pages hold S's bottom while a stream of one-off
        # pages passes through the HIR frame and leaves ghosts behind.
        buffer = SharedBufferPool(AccessStats(), capacity=8)
        for page in range(7):
            buffer.touch(("hot", page))
        peak = 0
        for page in range(200):
            buffer.touch(("cold", page))
            peak = max(peak, len(buffer._ghosts))
            assert peak <= 8
        assert peak == 8
        buffer.check_invariants()
        assert all(buffer.touch(("hot", page)) is False for page in range(7))


class TestMerge:
    def test_merge_folds_counters_and_categories(self):
        total = AccessStats()
        total.read(2, "object")
        part = AccessStats()
        part.read(1, "object")
        part.write(3, "btree_leaf")
        total.merge(part)
        assert total.page_reads == 3
        assert total.page_writes == 3
        assert total.by_category == {"object": 3, "btree_leaf:write": 3}
