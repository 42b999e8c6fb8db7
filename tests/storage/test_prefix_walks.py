"""A memoised walk reads and charges as the lazy walk it replays.

``BPlusTree.walk(lo, hi, buffer)`` records one ``leaf_slices`` walk per
key interval and replays it — its page ids as two ``touch_many`` runs,
its values as a copy — until the next ``insert`` or ``delete``.  Under
any interleaving of inserts, deletes and prefix reads on small pages
(so leaves and interiors split, borrow, merge and the root collapses),
a read must return the row-at-a-time reference's values and hand its
buffer the lazy walk's ``(page id, category)`` sequence, on a miss and
on a hit; a fault at the k-th read must leave the same pages charged.
The memo never holds more walks than the tree has keys (bar one per
racing reader), an uncharged miss stores nothing, and every write
empties it.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InjectedFault
from repro.faults import FaultInjector
from repro.storage.btree import BPlusTree
from repro.storage.stats import AccessStats, BufferScope
from tests.storage.reference_walker import RecordingBuffer, reference_range

#: Keys are ``(prefix, tie)``; a prefix read is ``[(p,), (p + 1,))``.
PREFIXES = range(6)
TIES = range(4)
KEYS = [(p, t) for p in PREFIXES for t in TIES]


def prefix_interval(prefix: int) -> tuple:
    return (prefix,), (prefix + 1,)


class RecordingFaults(FaultInjector):
    """Remembers every charged read; faults the ``k``-th one."""

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k
        self.reads: list[tuple[int, str]] = []

    def on_read(self, page_id, category: str = "page") -> None:
        self.reads.append((page_id, category))
        if len(self.reads) == self.k:
            raise InjectedFault(f"read {self.k}")


def lazy_walk(tree: BPlusTree, lo, hi, buffer) -> list:
    values = []
    for _keys, found in tree.leaf_slices(lo, hi, buffer):
        values += found
    return values


def charged(read, tree, lo, hi, k: int) -> tuple:
    """What ``read`` leaves charged when the ``k``-th read faults."""
    injector = RecordingFaults(k)
    buffer = BufferScope(AccessStats(), injector)
    try:
        outcome = read(tree, lo, hi, buffer)
    except InjectedFault as fault:
        outcome = str(fault)
    return outcome, injector.reads, buffer.stats


def assert_read_replays_the_walk(tree: BPlusTree, prefix: int, fault_at: int) -> None:
    lo, hi = prefix_interval(prefix)
    reference = RecordingBuffer()
    expected = [value for _, value in reference_range(tree, lo, hi, reference)]
    lazy = RecordingBuffer()
    assert lazy_walk(tree, lo, hi, lazy) == expected
    assert lazy.touched == reference.touched
    # The faulted read is the interval's first since the last write (a
    # miss) or a repeat (a hit); the two reads after it hit if stored.
    assert charged(BPlusTree.walk, tree, lo, hi, fault_at) == charged(
        lazy_walk, tree, lo, hi, fault_at
    )
    for _attempt in range(2):
        memoised = RecordingBuffer()
        assert tree.walk(lo, hi, memoised) == expected
        assert memoised.touched == lazy.touched


key = st.tuples(st.sampled_from(PREFIXES), st.sampled_from(TIES))
#: A read of one prefix (-1 and ``len(PREFIXES)`` hold no key): charged
#: with a fault at its k-th page read, or uncharged when k is 0.
read = st.tuples(st.integers(-1, len(PREFIXES)), st.integers(0, 12))


def steps(*kinds):
    """Steps of a write of one of ``kinds`` (or none), then one read."""
    return st.lists(
        st.tuples(st.sampled_from([*kinds, "none"]), key, read), min_size=8, max_size=30
    )


@settings(max_examples=30, deadline=None)
@given(
    leaf=st.integers(2, 4),
    interior=st.integers(3, 5),
    grow=steps("insert"),
    mixed=steps("insert", "delete"),
    drain=st.permutations(KEYS),
    drain_reads=st.lists(read, min_size=len(KEYS), max_size=len(KEYS)),
)
def test_every_read_replays_the_lazy_walk(leaf, interior, grow, mixed, drain, drain_reads):
    # Inserts, then both, then every key deleted: the tree grows a few
    # levels (splits), then borrows, merges and collapses its root.
    tree = BPlusTree(leaf, interior)
    stored: dict = {}
    drained = [("delete", *step) for step in zip(drain, drain_reads)]
    for kind, written, (prefix, fault_at) in grow + mixed + drained:
        if kind == "insert" and written not in stored:
            stored[written] = written[::-1]
            tree.insert(written, stored[written])
            assert tree._walks == {}
        elif kind == "delete":
            assert tree.delete(written) == (stored.pop(written, None) is not None)
            assert tree._walks == {}
        if fault_at:
            assert_read_replays_the_walk(tree, prefix, fault_at)
        else:
            lo, hi = prefix_interval(prefix)
            memo = dict(tree._walks)
            expected = [v for _, v in reference_range(tree, lo, hi, RecordingBuffer())]
            assert tree.walk(lo, hi) == expected
            assert tree._walks == memo
        tree.check_invariants()
    assert len(tree) == len(stored) == 0


def loaded(keys, leaf: int = 2, interior: int = 3) -> BPlusTree:
    return BPlusTree.bulk_load([((k,), k) for k in keys], leaf, interior)


class TestTheMemoIsBoundedByTheTree:
    def test_absent_prefixes_stop_at_the_tree_size(self):
        tree = loaded(range(0, 20, 2))
        for absent in range(1, 61, 2):
            assert tree.walk((absent,), (absent, 0), RecordingBuffer()) == []
        assert len(tree._walks) == len(tree) == 10
        tree.check_invariants()

    def test_an_empty_tree_stores_no_walk(self):
        tree = BPlusTree(2, 3)
        assert tree.walk((0,), (1,), RecordingBuffer()) == []
        assert tree._walks == {}

    def test_an_uncharged_miss_stores_nothing(self):
        tree = loaded(range(10))
        assert tree.walk((3,), (4,)) == [3]
        assert tree._walks == {}
        tree.walk((3,), (4,), RecordingBuffer())
        assert list(tree._walks) == [((3,), (4,))]

    def test_a_hit_hands_out_a_copy(self):
        tree = loaded(range(10))
        tree.walk((2,), (5,), RecordingBuffer()).append("junk")
        assert tree.walk((2,), (5,), RecordingBuffer()) == [2, 3, 4]
        assert tree.walk((2,), (5,)) == [2, 3, 4]


class TestEveryWriteEmptiesTheMemo:
    @pytest.mark.parametrize("write", ["insert", "delete"])
    def test_a_write_outside_every_interval_empties_it(self, write):
        tree = loaded(range(0, 40, 2))
        tree.walk((4,), (7,), RecordingBuffer())
        if write == "insert":
            tree.insert((31,), 31)
        else:
            assert tree.delete((30,))
        assert tree._walks == {}
        tree.check_invariants()

    def test_an_insert_past_the_interval_moves_the_stopping_leaf(self):
        # Leaves [0, 2] [4, 6]: [0, 3) ends its leaf, so the walk reads
        # the next leaf's first key to see it is over.  Inserting 3 —
        # outside the interval — splits the first leaf, and the walk
        # then stops on the new leaf [3].
        tree = loaded([0, 2, 4, 6])
        before = RecordingBuffer()
        assert tree.walk((0,), (3,), before) == [0, 2]
        tree.insert((3,), 3)
        after = RecordingBuffer()
        assert tree.walk((0,), (3,), after) == [0, 2]
        assert after.touched != before.touched
        lazy = RecordingBuffer()
        lazy_walk(tree, (0,), (3,), lazy)
        assert after.touched == lazy.touched


def test_concurrent_readers_fill_one_memo_between_writes():
    """Readers share a read lock, so they fill the memo concurrently;
    the writer empties it with no reader in flight, as under the write
    lock.  Every read must stay exact and every stored walk fresh, and
    the bound may be overshot by at most one walk per racing reader."""
    rng = random.Random(5)
    tree = BPlusTree(2, 3)
    readers = 8
    wrong: list = []

    def reader(seed: int, expected: dict, start: threading.Barrier) -> None:
        local = random.Random(seed)
        start.wait(timeout=60)  # all miss at once, right after the writes
        for _ in range(40):
            prefix = local.choice(list(expected))
            buffer = RecordingBuffer()
            if (tree.walk(*prefix_interval(prefix), buffer), buffer.touched) != expected[prefix]:
                wrong.append(prefix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            for written in rng.sample(KEYS, 8):
                if written in tree:
                    tree.delete(written)
                else:
                    tree.insert(written, written)
            expected = {}
            for prefix in range(-4, 2 * len(PREFIXES)):
                lazy = RecordingBuffer()
                values = lazy_walk(tree, *prefix_interval(prefix), lazy)
                expected[prefix] = (values, lazy.touched)
            start = threading.Barrier(readers)
            threads = [
                threading.Thread(target=reader, args=(round_ * readers + n, expected, start))
                for n in range(readers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(tree._walks) < len(tree) + readers
            tree.check_invariants()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
