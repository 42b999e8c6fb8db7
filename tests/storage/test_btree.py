"""B+ tree: unit tests, invariants, and a hypothesis model-based test."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.btree import MISSING, BPlusTree
from repro.storage.stats import AccessStats, BufferScope


def make_tree(leaf=4, interior=4):
    return BPlusTree(leaf_capacity=leaf, interior_capacity=interior)


class TestBasics:
    def test_empty(self):
        tree = make_tree()
        assert len(tree) == 0
        assert tree.search(1) is MISSING
        assert 1 not in tree
        assert list(tree.range()) == []
        assert tree.height == 1
        assert tree.height == 1

    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, "five")
        tree.insert(3, "three")
        assert tree.search(5) == "five"
        assert tree.search(3) == "three"
        assert tree.search(4) is MISSING
        assert 5 in tree

    def test_duplicate_key_rejected(self):
        tree = make_tree()
        tree.insert(1, "a")
        with pytest.raises(StorageError):
            tree.insert(1, "b")

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BPlusTree(1, 4)
        with pytest.raises(StorageError):
            BPlusTree(4, 2)

    def test_splits_grow_height(self):
        tree = make_tree()
        for key in range(100):
            tree.insert(key, key)
        assert tree.height > 1
        tree.check_invariants()
        assert list(tree.keys()) == list(range(100))

    def test_random_order_inserts(self):
        keys = list(range(500))
        random.Random(1).shuffle(keys)
        tree = make_tree(8, 8)
        for key in keys:
            tree.insert(key, -key)
        tree.check_invariants()
        assert [v for _, v in tree.items()] == [-k for k in range(500)]

    def test_delete_missing(self):
        tree = make_tree()
        assert tree.delete(42) is False

    def test_delete_all(self):
        tree = make_tree()
        keys = list(range(200))
        random.Random(2).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        random.Random(3).shuffle(keys)
        for key in keys:
            assert tree.delete(key) is True
            tree.check_invariants()
        assert len(tree) == 0

    def test_range_bounds(self):
        tree = make_tree()
        for key in range(0, 100, 2):
            tree.insert(key, key)
        assert [k for k, _ in tree.range(lo=10, hi=20)] == [10, 12, 14, 16, 18]
        assert [k for k, _ in tree.range(lo=11, hi=15)] == [12, 14]
        assert [k for k, _ in tree.range(hi=6)] == [0, 2, 4]
        assert [k for k, _ in tree.range(lo=94)] == [94, 96, 98]

    def test_node_counts(self):
        tree = make_tree(4, 4)
        for key in range(64):
            tree.insert(key, key)
        assert tree.leaf_count() >= 16
        assert tree.interior_count() >= 4


class TestBulkLoad:
    def test_matches_incremental(self):
        entries = [(k, k * 2) for k in range(1000)]
        bulk = BPlusTree.bulk_load(entries, 16, 16)
        bulk.check_invariants()
        assert list(bulk.items()) == entries
        assert bulk.search(500) == 1000

    def test_unsorted_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([(2, 0), (1, 0)], 4, 4)
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([(1, 0), (1, 0)], 4, 4)

    def test_empty_and_tiny(self):
        assert len(BPlusTree.bulk_load([], 4, 4)) == 0
        tree = BPlusTree.bulk_load([(1, "x")], 4, 4)
        assert tree.search(1) == "x"
        tree.check_invariants()

    def test_leaf_packing(self):
        entries = [(k, k) for k in range(100)]
        tree = BPlusTree.bulk_load(entries, 10, 16)
        assert tree.leaf_count() == 10  # fully packed

    @pytest.mark.parametrize("leaves, fan_out", [(4, 3), (339, 338)])
    def test_lone_tail_node_gets_a_sibling(self, leaves, fan_out):
        # A level of ``k * fan_out + 1`` nodes used to pass its last node
        # up unwrapped, one level shallower than its siblings.
        entries = [(k, k) for k in range(2 * leaves)]
        tree = BPlusTree.bulk_load(entries, 2, fan_out)
        assert tree.leaf_count() == leaves
        tree.check_invariants()
        assert list(tree.items()) == entries
        assert tree.interior_count() == 3 and tree.height == 3

    def test_mutable_after_bulk_load(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(50)], 8, 8)
        tree.insert(1000, 1000)
        assert tree.delete(25)
        tree.check_invariants()
        assert tree.search(25) is MISSING
        assert tree.search(1000) == 1000


class TestPageAccounting:
    def test_lookup_touches_height_pages(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(10_000)], 64, 64)
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            tree.search(5000, buffer)
        assert stats.page_reads == tree.height

    def test_buffer_dedupes_within_scope(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(1000)], 64, 64)
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            tree.search(1, buffer)
            tree.search(1, buffer)
        assert stats.page_reads == tree.height  # second lookup free

    def test_range_scan_touches_all_leaves(self):
        tree = BPlusTree.bulk_load([(k, k) for k in range(1000)], 50, 50)
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            list(tree.range(context=buffer))
        leaf_reads = stats.by_category.get("btree_leaf", 0)
        assert leaf_reads == tree.leaf_count()

    def test_insert_charges_writes(self):
        tree = make_tree()
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            tree.insert(1, 1, buffer)
        assert stats.page_writes >= 1


# ----------------------------------------------------------------------
# hypothesis: the tree behaves exactly like a dict
# ----------------------------------------------------------------------

commands = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "search", "range"]),
        st.integers(0, 40),
        st.integers(0, 40),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(commands, st.integers(2, 6), st.integers(3, 6))
def test_model_based(ops, leaf_capacity, interior_capacity):
    tree = BPlusTree(leaf_capacity, interior_capacity)
    model: dict[int, int] = {}
    for op, key, value in ops:
        if op == "insert":
            if key in model:
                with pytest.raises(StorageError):
                    tree.insert(key, value)
            else:
                tree.insert(key, value)
                model[key] = value
        elif op == "delete":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        elif op == "search":
            expected = model.get(key, MISSING)
            assert tree.search(key) == expected
        else:
            lo, hi = sorted((key, value))
            expected = sorted(
                (k, v) for k, v in model.items() if lo <= k < hi
            )
            assert list(tree.range(lo=lo, hi=hi)) == expected
        tree.check_invariants()
    assert list(tree.items()) == sorted(model.items())
