"""The page-at-a-time walker equals the row-at-a-time loop it replaced.

``range()`` and ``leaf_slices()`` must return the reference's ``(key,
value)`` sequence *and* touch the reference's ``(id(node), category)``
sequence — same pages, same order — for every pair of bounds: present
keys, absent keys, ``None``, keys on leaf boundaries, ``lo >= hi``, and
on the empty tree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.btree import BPlusTree
from tests.storage.reference_walker import RecordingBuffer, reference_range

#: Stored keys are even, so every odd bound is an absent key; -1 and 81
#: lie outside the stored range on either side.
DOMAIN = range(0, 80, 2)
BOUNDS = (None, *range(-1, 82))


def assert_walkers_agree(tree: BPlusTree, lo, hi) -> None:
    reference_buffer = RecordingBuffer()
    expected = list(reference_range(tree, lo, hi, reference_buffer))

    range_buffer = RecordingBuffer()
    assert list(tree.range(lo, hi, range_buffer)) == expected
    assert range_buffer.touched == reference_buffer.touched

    slice_buffer = RecordingBuffer()
    flattened = []
    for keys, values in tree.leaf_slices(lo, hi, slice_buffer):
        assert 0 < len(keys) == len(values) <= tree.leaf_capacity
        flattened.extend(zip(keys, values))
    assert flattened == expected
    assert slice_buffer.touched == reference_buffer.touched


def grown_tree(seed: int, leaf: int, interior: int) -> BPlusTree:
    """Random inserts, then a third deleted again: uneven, re-merged leaves."""
    rng = random.Random(seed)
    keys = list(DOMAIN)
    rng.shuffle(keys)
    tree = BPlusTree(leaf, interior)
    for key in keys:
        tree.insert(key, -key)
    for key in rng.sample(keys, len(keys) // 3):
        tree.delete(key)
    tree.check_invariants()
    return tree


def leaf_boundary_keys(tree: BPlusTree) -> set:
    boundaries = set()
    leaf = tree._leftmost_leaf()
    while leaf is not None:
        boundaries.update(leaf.keys[:1] + leaf.keys[-1:])
        leaf = leaf.next
    return boundaries


class TestEveryPairOfBounds:
    def test_empty_tree(self):
        tree = BPlusTree(4, 4)
        for lo in (None, 0, 7):
            for hi in (None, 0, 7):
                assert_walkers_agree(tree, lo, hi)
        assert list(tree.leaf_slices()) == []

    def test_grown_tree(self):
        tree = grown_tree(seed=3, leaf=4, interior=4)
        assert tree.height >= 3
        # The exhaustive sweep below does include bounds on leaf borders.
        assert leaf_boundary_keys(tree) <= set(BOUNDS)
        for lo in BOUNDS:
            for hi in BOUNDS:
                assert_walkers_agree(tree, lo, hi)

    def test_bulk_loaded_tree(self):
        entries = [(key, str(key)) for key in DOMAIN]
        for fill_factor in (1.0, 0.6):
            tree = BPlusTree.bulk_load(entries, 5, 4, fill_factor)
            tree.check_invariants()
            for lo in BOUNDS:
                for hi in BOUNDS:
                    assert_walkers_agree(tree, lo, hi)

    def test_whole_leaves_are_handed_out_uncopied(self):
        # The saving: a leaf inside the bounds costs no slice.
        tree = BPlusTree.bulk_load([(key, key) for key in DOMAIN], 5, 4)
        leaf = tree._leftmost_leaf()
        for keys, values in tree.leaf_slices():
            assert keys is leaf.keys and values is leaf.values
            leaf = leaf.next
        assert leaf is None


commands = st.lists(
    st.tuples(st.booleans(), st.sampled_from(list(DOMAIN))), max_size=120
)
bound = st.one_of(st.none(), st.integers(-1, 81))


@settings(max_examples=200, deadline=None)
@given(commands, st.integers(2, 6), st.integers(3, 6), st.lists(st.tuples(bound, bound), min_size=1, max_size=8))
def test_random_insert_delete_trees(ops, leaf_capacity, interior_capacity, bounds):
    tree = BPlusTree(leaf_capacity, interior_capacity)
    present: set[int] = set()
    for insert, key in ops:
        if insert and key not in present:
            tree.insert(key, key * 10)
            present.add(key)
        elif not insert:
            assert tree.delete(key) == (key in present)
            present.discard(key)
    tree.check_invariants()
    for lo, hi in bounds:
        assert_walkers_agree(tree, lo, hi)
    for key in leaf_boundary_keys(tree):
        assert_walkers_agree(tree, key, None)
        assert_walkers_agree(tree, None, key)


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.sampled_from(list(DOMAIN))),
    st.integers(2, 6),
    st.integers(3, 6),
    st.sampled_from([1.0, 0.75, 0.5]),
    st.lists(st.tuples(bound, bound), min_size=1, max_size=8),
)
def test_bulk_loaded_trees(keys, leaf_capacity, interior_capacity, fill_factor, bounds):
    entries = [(key, key * 10) for key in sorted(keys)]
    tree = BPlusTree.bulk_load(entries, leaf_capacity, interior_capacity, fill_factor)
    tree.check_invariants()
    for lo, hi in bounds:
        assert_walkers_agree(tree, lo, hi)


class TestLeafCounter:
    def test_counter_follows_splits_merges_and_bulk_loads(self):
        # ``check_invariants`` asserts the counter against a chain walk.
        tree = BPlusTree(4, 4)
        assert tree.leaf_count() == 1
        for key in DOMAIN:
            tree.insert(key, key)
        grown = tree.leaf_count()
        assert grown > 1
        tree.check_invariants()
        for key in DOMAIN:
            tree.delete(key)
            tree.check_invariants()
        assert tree.leaf_count() == 1 < grown
        loaded = BPlusTree.bulk_load([(key, key) for key in DOMAIN], 4, 4)
        assert loaded.leaf_count() == 10
        loaded.check_invariants()
        assert BPlusTree.bulk_load([], 4, 4).leaf_count() == 1
