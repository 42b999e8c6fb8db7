"""Column directories stay equal to their trees under every tree change.

A partition's mid-partition read, ``BPlusTree.column_probe`` on its
forward tree, charges the pages of a cached charge list and answers
from a column directory per probed offset (cell -> its rows).  On
96-byte pages (4 rows per leaf, 8 children per interior node) random
``add_projection`` / ``remove_projection`` sequences split, borrow from
either side, merge and collapse the root; after every step the probe
must return the rows, and touch the pages, of a filter over a full
scan, every directory must be the very one built before (kept up to
date by insert and delete, never rebuilt), and a charge list must have
been dropped by any change of the tree's shape.
"""

import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.asr import StoredPartition
from repro.gom import NULL, OID
from repro.storage.btree import BPlusTree
from tests.asr.loading import bulk_load
from tests.asr.test_partition_reads import scan
from tests.storage.reference_walker import RecordingBuffer

PAGE_SIZE, OID_SIZE = 96, 8
ABSENT = OID(999)


def make_partition() -> StoredPartition:
    partition = StoredPartition(0, 2, ("a", "b", "c"), PAGE_SIZE, OID_SIZE)
    assert partition.tuples_per_page == 4
    bulk_load(partition, [])
    return partition


def leaves(tree: BPlusTree) -> list:
    chain, leaf = [], tree._leftmost_leaf()
    while leaf is not None:
        chain.append(leaf)
        leaf = leaf.next
    return chain


def probe_sets(partition: StoredPartition) -> None:
    """Every offset: the column probe equals the scan filter, rows and pages."""
    everything = scan(partition)
    for offset in range(partition.arity):
        present = sorted({row[offset] for row in everything}, key=repr)
        for cells in (set(), {NULL, ABSENT}, set(present[::2]), set(present)):
            select_buffer, scan_buffer = RecordingBuffer(), RecordingBuffer()
            assert partition.forward_tree.column_probe(offset, cells, select_buffer) == [
                row for row in scan(partition, scan_buffer) if row[offset] in cells
            ]
            assert select_buffer.touched == scan_buffer.touched


def nodes(tree: BPlusTree) -> list:
    """Every node of the tree; holding them keeps their ids unique."""
    found, level = [], [tree._root]
    while level:
        found += level
        level = [child for node in level if not node.is_leaf for child in node.children]
    return found


def snapshot(tree: BPlusTree) -> tuple:
    """The tree's directories and charge list, and the nodes the list names."""
    return dict(tree._columns), tree._charges, nodes(tree)


def check_step(partition: StoredPartition, before: tuple) -> None:
    tree = partition.forward_tree
    directories, charges, _ = before
    assert tree._columns.keys() == directories.keys(), "a change dropped a directory"
    for offset, directory in directories.items():
        assert tree._columns[offset] is directory, "a change rebuilt a directory"
    if charges is not None:
        # Dropped exactly when the leftmost descent or the leaf chain moved.
        assert (tree._charges is charges) == (tree._charge_list() == charges), (
            "charge list kept across a new shape, or dropped without one"
        )
    partition.forward_tree.check_invariants()
    partition.backward_tree.check_invariants()
    probe_sets(partition)
    for offset in range(partition.arity):
        first = tree._columns[offset]
        tree.column_probe(offset, set())
        assert tree._columns[offset] is first, "a repeated probe rebuilt a directory"
    charges = tree._charges
    tree.column_probe(0, set(), RecordingBuffer())
    assert tree._charges is charges, "a repeated probe rebuilt the charge list"


def run(partition: StoredPartition, rows: list, ops) -> Counter:
    witnesses: Counter = Counter()
    probe_sets(partition)
    for add, index in ops:
        before = snapshot(partition.forward_tree)
        if add:
            row = rows[index % len(rows)]
            partition.add_projection(row)
            witnesses[row] += 1
        elif witnesses:
            row = sorted(witnesses, key=repr)[index % len(witnesses)]
            partition.remove_projection(row)
            witnesses[row] -= 1
            if not witnesses[row]:
                del witnesses[row]
        check_step(partition, before)
    assert sorted(partition.rows(), key=repr) == sorted(witnesses, key=repr)
    return witnesses


class TestEveryRebalancingCase:
    def test_a_seeded_grow_and_shrink_exercises_them_all(self, monkeypatch):
        """The property's cases, pinned: one seeded run hits each of them."""
        events: Counter = Counter()

        def count(name, event):
            original = getattr(BPlusTree, name)

            def wrapper(self, *args):
                height = self.height
                result = original(self, *args)
                events[event(self, height, *args)] += 1
                return result

            monkeypatch.setattr(BPlusTree, name, wrapper)

        def child_level(name):
            def event(_tree, _height, parent, index, _buffer):
                # After a merge ``index`` may be gone: the left child stays.
                child = parent.children[min(index, len(parent.children) - 1)]
                return name, child.is_leaf

            return event

        count("_split_leaf", lambda _tree, _height, _leaf, _buffer: ("split", True))
        for name in ("_borrow_from_left", "_borrow_from_right", "_merge"):
            count(name, child_level(name))
        count("delete", lambda tree, height, *_: ("collapse", tree.height < height))

        cells = [NULL, *map(OID, range(6))]
        rows = [(a, b, c) for a in cells for b in cells for c in cells][1:]
        rng = random.Random(11)
        rng.shuffle(rows)
        rows = rows[:70]
        grow = [(True, index) for index in range(len(rows))]
        # Every row witnessed twice, then removed in random order: first
        # removals that change no leaf, then a drain to the empty root.
        drain = [(False, rng.randrange(10**6)) for _ in range(2 * len(rows))]
        partition = make_partition()
        assert not run(partition, rows, grow + grow + drain)
        assert partition.forward_tree.leaf_count() == 1
        for event in ("split", "_borrow_from_left", "_borrow_from_right", "_merge"):
            assert events[event, True] > 0, (event, events)
        assert events["collapse", True] > 0, events


def small_tree() -> BPlusTree:
    tree = BPlusTree.bulk_load([(n, (OID(n), OID(n % 3))) for n in range(12)], 4, 4)
    rows = tree.column_probe(1, {OID(1)}, RecordingBuffer())  # builds both caches
    assert rows == [(OID(n), OID(1)) for n in (1, 4, 7, 10)]
    tree.check_invariants()
    return tree


def test_check_invariants_catches_a_stale_set():
    # A leaf changed behind the tree's back leaves its directory stale: caught.
    tree = small_tree()
    tree._leftmost_leaf().values[0] = (OID(0), OID(7))
    with pytest.raises(AssertionError, match="stale column directory at offset 1"):
        tree.check_invariants()
    # So is a directory edited behind the tree's back.
    tree = small_tree()
    tree._columns[1][OID(2)].pop()
    with pytest.raises(AssertionError, match="stale column directory at offset 1"):
        tree.check_invariants()


def test_check_invariants_catches_a_charge_list_kept_across_a_split():
    tree = small_tree()
    kept = tree._charges
    tree.insert(2.5, (OID(99), OID(0)))  # the first leaf is full: it splits
    assert tree._charges is None and tree.leaf_count() == 4
    tree.check_invariants()
    tree._charges = kept
    with pytest.raises(AssertionError, match="stale charge list"):
        tree.check_invariants()


def test_an_uncharged_probe_leaves_the_charge_list_alone():
    # Maintenance probes uncharged; only a charged probe needs the list.
    tree = small_tree()
    tree.insert(2.5, (OID(99), OID(0)))  # a split drops the list
    assert tree.column_probe(1, {OID(0)})[0] == (OID(0), OID(0))
    assert tree._charges is None
    tree.column_probe(1, {OID(0)}, RecordingBuffer())
    assert tree._charges == tree._charge_list()


def test_concurrent_readers_building_sets_agree_with_the_scan_filter():
    """Readers share a read lock, so two may build one directory at once.

    Each round starts with no directory and no charge list, so its
    readers race on both builds.  Whichever build lands, every probe
    must answer as the scan filter does; writers (here: between rounds)
    run alone, as under the manager's write lock.
    """
    rng = random.Random(3)
    domain = [NULL, *map(OID, range(12))]
    partition = make_partition()
    wrong: list = []

    def reader(seed: int, expected: dict) -> None:
        local = random.Random(seed)
        for _ in range(150):
            offset, cells = local.choice(list(expected))
            probed = partition.forward_tree.column_probe(
                offset, set(cells), RecordingBuffer()
            )
            if probed != expected[offset, cells]:
                wrong.append((offset, cells))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(4):
            for _ in range(60):
                row = tuple(rng.choice(domain) for _ in range(3))
                if any(c is not NULL for c in row):
                    partition.add_projection(row)
            everything = scan(partition)
            probes = [
                (offset, frozenset(rng.sample(domain, 3)))
                for offset in range(3)
                for _ in range(4)
            ]
            expected = {
                (offset, cells): [row for row in everything if row[offset] in cells]
                for offset, cells in probes
            }
            partition.forward_tree._columns.clear()
            partition.forward_tree._charges = None
            threads = [
                threading.Thread(target=reader, args=(round_ * 8 + n, expected))
                for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            partition.forward_tree.check_invariants()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong


cell = st.one_of(st.just(NULL), st.integers(0, 5).map(OID))
row = st.tuples(cell, cell, cell).filter(lambda r: any(c is not NULL for c in r))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(row, min_size=1, max_size=40, unique=True),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=90),
)
def test_random_projection_sequences(rows, ops):
    run(make_partition(), rows, ops)
