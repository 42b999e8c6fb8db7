"""A B+ tree with per-node page accounting.

Access support relation partitions are stored in *two redundant* B+ trees
(section 5.2, following Valduriez's join indices): one clustered on the
partition's first column, one on its last.  This module provides the
underlying tree: unique totally ordered keys, values at the leaves,
leaves doubly linked for range scans, interior nodes holding separators.

Duplicate logical keys (one OID starting many partial paths) are handled
one level up (:mod:`repro.asr.asr`) by keys ``(cell key, row key)``
whose tie-break is the whole row as one flat tuple; this keeps the tree
itself in the textbook unique-key regime with full delete rebalancing
(borrow from siblings, merge, root collapse).

Every node is one page.  Read operations accept a ``context`` — an
:class:`~repro.context.ExecutionContext` or a raw buffer scope (see
:mod:`repro.storage.stats`) — and charge one page read per distinct node
touched; mutating operations charge page writes for each node they dirty.
Passing ``context=None`` performs the operation without accounting (the
logical layer uses that).

The leaf page is also the unit scans *hand out*: :meth:`BPlusTree.leaf_slices`
is the one walker of a bounded key interval, yielding each visited leaf's
keys and values as lists, and :meth:`BPlusTree.range` is written on it —
so a consumer that can decide per page (concatenate, filter a column
with a set operation) never pays an interpreter step per row.

The tree also answers column probes.  When the values are rows,
:meth:`BPlusTree.column_probe` returns the rows whose ``offset``-th cell
is in a set of cells, from a *column directory*: one dict per probed
offset mapping each cell to that cell's ``(key, row)`` pairs in key
order.  A directory is built on the first probe of its offset and kept
up to date by the tree-level :meth:`~BPlusTree.insert` and
:meth:`~BPlusTree.delete`; since it does not depend on leaves, splits,
borrows, merges and root changes never touch it.  The probe is the one
read that is not lazy: it resolves its buffer once, when called, and
charges every page a whole-tree scan charges before it reads a row —
the leftmost descent as one ``touch_many`` run, the leaf chain as
another, so a pool decides each run under one hold of its lock.  Those
page ids are a cached *charge list*, dropped by every change of the
tree's shape (a split, a merge, a new or collapsed root).

The third cache is the *walk memo* behind :meth:`BPlusTree.walk`, the
eager read of one key interval that partition lookups use: per interval,
the page ids its walk touches and the values it found, recorded from one
:meth:`leaf_slices` walk.  A repeat read charges those ids as two
``touch_many`` runs and copies the values, with no descent and no
bisect.  Every insert and delete empties it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import ceil
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.stats import resolve_buffer

_INTERIOR_CATEGORY = "btree_interior"
_LEAF_CATEGORY = "btree_leaf"


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.next: _Leaf | None = None

    is_leaf = True

    def __len__(self) -> int:
        return len(self.keys)


class _Interior:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # keys[i] is the smallest key reachable in children[i + 1].
        self.keys: list[Any] = []
        self.children: list[Any] = []

    is_leaf = False

    def __len__(self) -> int:
        return len(self.children)


class BPlusTree:
    """A unique-key B+ tree.

    Parameters
    ----------
    leaf_capacity:
        Maximum number of entries per leaf page (the model's ``atpp``).
    interior_capacity:
        Maximum number of children per interior page (the model's
        ``B+fan``).
    """

    def __init__(self, leaf_capacity: int, interior_capacity: int) -> None:
        if leaf_capacity < 2:
            raise StorageError("leaf capacity must be at least 2")
        if interior_capacity < 3:
            raise StorageError("interior capacity must be at least 3")
        self.leaf_capacity = leaf_capacity
        self.interior_capacity = interior_capacity
        self._root: _Leaf | _Interior = _Leaf()
        self._size = 0
        # Leaf pages; only ``_split_leaf``, a leaf ``_merge`` and
        # ``bulk_load`` change it.
        self._leaves = 1
        # Three caches.  offset -> column directory (cell -> its (key,
        # value) pairs in key order), built on the first probe of the
        # offset; never dropped, ``insert`` and ``delete`` keep it.
        self._columns: dict[int, dict[Any, list[tuple[Any, Any]]]] = {}
        # The pages a column probe charges, (descent ids, leaf chain ids);
        # None after any change of the tree's shape.  Only ``_split_leaf``
        # and ``_merge`` drop it: an interior split or a new root follows
        # a leaf split, and a root collapse follows a merge.
        self._charges: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        # The walk memo: (lo, hi) -> (descent ids, leaf ids, values) of a
        # charged ``walk``.  Every ``insert`` and ``delete`` empties it:
        # a walk reads the keys just past its interval too.
        self._walks: dict[tuple[Any, Any], tuple[tuple, tuple, list]] = {}

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not _MISSING

    @property
    def height(self) -> int:
        """Number of levels including the leaf level (>= 1)."""
        levels = 1
        node = self._root
        while not node.is_leaf:
            levels += 1
            node = node.children[0]
        return levels

    def leaf_count(self) -> int:
        return self._leaves

    def interior_count(self) -> int:
        if self._root.is_leaf:
            return 0
        count = 0
        level = [self._root]
        while level and not level[0].is_leaf:
            count += len(level)
            level = [child for node in level for child in node.children]
        return count

    def _leftmost_leaf(self, buffer=None) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            _touch(buffer, node, _INTERIOR_CATEGORY)
            node = node.children[0]
        return node

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _descend(self, key: Any, buffer=None) -> _Leaf:
        node = self._root
        while not node.is_leaf:
            _touch(buffer, node, _INTERIOR_CATEGORY)
            node = node.children[bisect_right(node.keys, key)]
        return node

    def search(self, key: Any, context=None) -> Any:
        """The value stored under ``key``, or the ``MISSING`` sentinel."""
        buffer = resolve_buffer(context)
        leaf = self._descend(key, buffer)
        _touch(buffer, leaf, _LEAF_CATEGORY)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return _MISSING

    def leaf_slices(
        self,
        lo: Any = None,
        hi: Any = None,
        context=None,
    ) -> Iterator[tuple[list[Any], list[Any]]]:
        """Yield ``(keys, values)`` per visited leaf for ``lo <= key < hi``.

        The one walker of a key interval: a leaf lying inside the bounds
        hands out its own two lists (read them, never mutate them), a
        leaf the bounds cut hands out slices found by ``bisect``, an
        empty cut nothing.  ``None`` bounds are open.

        Pages are charged as the walk touches them: interior pages on
        the one descent, then each leaf as the consumer reaches it —
        including the leaf on which the scan finds out it is over (a cut
        that runs to the end of a leaf moves on and touches the next one
        before it can see its first key).

        The walk is lazy: a page is charged when the consumer reaches
        it, so a walk that is never consumed charges nothing.  The
        charge target is the buffer ``context`` resolves to when this
        is called; :meth:`range`, a generator, calls it at its first
        consumption, so a scan created in one operation span but
        iterated in another charges the span that does the reading.
        """
        return self._leaf_slices(lo, hi, resolve_buffer(context))

    def _leaf_slices(
        self, lo: Any, hi: Any, buffer
    ) -> Iterator[tuple[list[Any], list[Any]]]:
        if lo is None:
            leaf: _Leaf | None = self._leftmost_leaf(buffer)
            start = 0
        else:
            leaf = self._descend(lo, buffer)
            start = bisect_left(leaf.keys, lo)
        while leaf is not None:
            _touch(buffer, leaf, _LEAF_CATEGORY)
            keys = leaf.keys
            stop = len(keys) if hi is None else bisect_left(keys, hi, start)
            if start < stop:
                if stop - start == len(keys):
                    yield keys, leaf.values
                else:
                    yield keys[start:stop], leaf.values[start:stop]
            if stop < len(keys):
                return  # the first key at or above ``hi`` is on this leaf
            leaf = leaf.next
            start = 0

    def walk(self, lo: Any, hi: Any, context=None) -> list[Any]:
        """The values under ``lo <= key < hi``, charged when called.

        Pages are charged as :meth:`leaf_slices` charges them — same
        pages, same categories, same order, including the leaf on which
        the scan finds out it is over — but in two ``touch_many`` runs,
        the descent and then the leaves, to the buffer resolved at the
        call: unlike :meth:`leaf_slices`, the read is not lazy.

        A charged read of an interval not in the walk memo records one
        :meth:`leaf_slices` walk (a recording buffer collects its page
        ids) and stores it while the memo holds fewer entries than the
        tree has keys, so reads of absent keys cannot grow it past the
        tree.  A repeat read charges the stored ids and copies the
        stored values.  An uncharged read that misses walks with no
        buffer and stores nothing.  Readers sharing a read lock may fill
        the memo concurrently (so racing readers may each store one walk
        past the bound); one dict assignment publishes an entry, and
        writers (``insert``, ``delete``) empty it under the write lock.
        """
        buffer = resolve_buffer(context)
        memo = self._walks.get((lo, hi))
        if memo is None:
            if buffer is None:
                return self._values(lo, hi, None)
            memo = self._record(lo, hi)
            if len(self._walks) < self._size:
                self._walks[(lo, hi)] = memo
        descent, leaves, values = memo
        if buffer is not None:
            if descent:
                buffer.touch_many(descent, _INTERIOR_CATEGORY)
            buffer.touch_many(leaves, _LEAF_CATEGORY)
        return values.copy()

    def _values(self, lo: Any, hi: Any, buffer) -> list[Any]:
        """The values of one ``_leaf_slices`` walk, leaf after leaf."""
        values: list[Any] = []
        for _keys, found in self._leaf_slices(lo, hi, buffer):
            values += found
        return values

    def _record(self, lo: Any, hi: Any) -> tuple[tuple, tuple, list]:
        """One walk's descent ids, leaf ids and values (uncharged)."""
        recorder = _WalkRecorder()
        values = self._values(lo, hi, recorder)
        return tuple(recorder.descent), tuple(recorder.leaves), values

    def column_probe(self, offset: int, cells, context=None) -> list[Any]:
        """The values (rows) whose ``offset``-th cell is in ``cells``.

        Pages are charged exactly as ``leaf_slices()`` with open bounds
        charges them — same pages, same order — but in two
        ``touch_many`` runs, the leftmost descent and then the leaf
        chain, from the cached charge list and before any row is read.
        The charge target is resolved once, when the probe is called:
        unlike :meth:`leaf_slices`, the probe is not lazy.  An uncharged
        probe neither builds nor reads the charge list.

        The rows then come from the offset's column directory, one hash
        lookup per cell of ``cells``, and are returned in key order.
        The first probe of an offset builds its directory uncharged.
        Both caches are built into a local and published by one
        assignment, so readers sharing a read lock may race on a build
        and never see half of one.
        """
        buffer = resolve_buffer(context)
        if buffer is not None:
            charges = self._charges
            if charges is None:
                charges = self._charges = self._charge_list()
            descent, leaves = charges
            if descent:
                buffer.touch_many(descent, _INTERIOR_CATEGORY)
            buffer.touch_many(leaves, _LEAF_CATEGORY)
        directory = self._columns.get(offset)
        if directory is None:
            directory = self._columns[offset] = self._directory(offset)
        hits = [pairs for pairs in map(directory.get, cells) if pairs is not None]
        if len(hits) > 1:
            merged = sorted([pair for pairs in hits for pair in pairs])
            return [value for _, value in merged]
        return [value for _, value in hits[0]] if hits else []

    def _charge_list(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The ids of the leftmost descent's nodes and of the leaf chain."""
        node = self._root
        descent = []
        while not node.is_leaf:
            descent.append(id(node))
            node = node.children[0]
        leaves = []
        leaf: _Leaf | None = node
        while leaf is not None:
            leaves.append(id(leaf))
            leaf = leaf.next
        return tuple(descent), tuple(leaves)

    def _directory(self, offset: int) -> dict[Any, list[tuple[Any, Any]]]:
        """Cell -> the ``(key, value)`` pairs holding it at ``offset``."""
        directory: dict[Any, list[tuple[Any, Any]]] = {}
        for keys, values in self._leaf_slices(None, None, None):
            for key, value in zip(keys, values):
                directory.setdefault(value[offset], []).append((key, value))
        return directory

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        context=None,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` for ``lo <= key < hi`` in key order.

        :meth:`leaf_slices` flattened: same bounds, same pages, same
        laziness, and the buffer resolved at the first consumption.
        """
        for keys, values in self.leaf_slices(lo, hi, context):
            yield from zip(keys, values)

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range()

    def keys(self) -> Iterator[Any]:
        return (key for key, _ in self.range())

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, key: Any, value: Any, context=None) -> None:
        """Insert a new entry; raises :class:`StorageError` on duplicate key."""
        buffer = resolve_buffer(context)
        self._walks.clear()
        split = self._insert(self._root, key, value, buffer)
        if split is not None:
            separator, right = split
            new_root = _Interior()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            _touch_write(buffer, new_root, _INTERIOR_CATEGORY)
        self._size += 1
        for offset, directory in self._columns.items():
            pairs = directory.get(value[offset])
            if pairs is None:
                directory[value[offset]] = [(key, value)]
            else:
                insort(pairs, (key, value))

    def _insert(self, node, key, value, buffer):
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                raise StorageError(f"duplicate key {key!r}")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            _touch_write(buffer, node, _LEAF_CATEGORY)
            if len(node.keys) > self.leaf_capacity:
                return self._split_leaf(node, buffer)
            return None
        child_index = bisect_right(node.keys, key)
        split = self._insert(node.children[child_index], key, value, buffer)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        _touch_write(buffer, node, _INTERIOR_CATEGORY)
        if len(node.children) > self.interior_capacity:
            return self._split_interior(node, buffer)
        return None

    def _split_leaf(self, leaf: _Leaf, buffer) -> tuple[Any, _Leaf]:
        middle = (len(leaf.keys) + 1) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        del leaf.keys[middle:]
        del leaf.values[middle:]
        right.next = leaf.next
        leaf.next = right
        self._leaves += 1
        self._charges = None
        _touch_write(buffer, right, _LEAF_CATEGORY)
        return right.keys[0], right

    def _split_interior(self, node: _Interior, buffer) -> tuple[Any, _Interior]:
        middle = len(node.children) // 2
        right = _Interior()
        separator = node.keys[middle - 1]
        right.keys = node.keys[middle:]
        right.children = node.children[middle:]
        del node.keys[middle - 1 :]
        del node.children[middle:]
        _touch_write(buffer, right, _INTERIOR_CATEGORY)
        return separator, right

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def delete(self, key: Any, context=None) -> bool:
        """Remove ``key``; returns False when it was not present."""
        buffer = resolve_buffer(context)
        self._walks.clear()
        value = self._delete(self._root, key, buffer)
        if value is _MISSING:
            return False
        self._size -= 1
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        for offset, directory in self._columns.items():
            pairs = directory[value[offset]]
            if len(pairs) == 1:
                del directory[value[offset]]
            else:
                del pairs[bisect_left(pairs, (key,))]
        return True

    def _min_leaf_fill(self) -> int:
        return ceil(self.leaf_capacity / 2)

    def _min_interior_fill(self) -> int:
        return ceil(self.interior_capacity / 2)

    def _delete(self, node, key, buffer) -> Any:
        """The value removed under ``key``, or ``MISSING``."""
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                return _MISSING
            del node.keys[index]
            value = node.values.pop(index)
            _touch_write(buffer, node, _LEAF_CATEGORY)
            return value
        child_index = bisect_right(node.keys, key)
        child = node.children[child_index]
        removed = self._delete(child, key, buffer)
        if removed is not _MISSING and self._is_underfull(child):
            self._rebalance(node, child_index, buffer)
            _touch_write(buffer, node, _INTERIOR_CATEGORY)
        return removed

    def _is_underfull(self, node) -> bool:
        if node.is_leaf:
            return len(node.keys) < self._min_leaf_fill()
        return len(node.children) < self._min_interior_fill()

    def _rebalance(self, parent: _Interior, index: int, buffer) -> None:
        child = parent.children[index]
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if left is not None and self._can_lend(left):
            self._borrow_from_left(parent, index, buffer)
        elif right is not None and self._can_lend(right):
            self._borrow_from_right(parent, index, buffer)
        elif left is not None:
            self._merge(parent, index - 1, buffer)
        else:
            self._merge(parent, index, buffer)

    def _can_lend(self, node) -> bool:
        if node.is_leaf:
            return len(node.keys) > self._min_leaf_fill()
        return len(node.children) > self._min_interior_fill()

    def _borrow_from_left(self, parent: _Interior, index: int, buffer) -> None:
        child = parent.children[index]
        left = parent.children[index - 1]
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        _touch_write(buffer, child, _category(child))
        _touch_write(buffer, left, _category(left))

    def _borrow_from_right(self, parent: _Interior, index: int, buffer) -> None:
        child = parent.children[index]
        right = parent.children[index + 1]
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        _touch_write(buffer, child, _category(child))
        _touch_write(buffer, right, _category(right))

    def _merge(self, parent: _Interior, left_index: int, buffer) -> None:
        """Merge ``children[left_index + 1]`` into ``children[left_index]``."""
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            self._leaves -= 1
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_index]
        del parent.children[left_index + 1]
        self._charges = None
        _touch_write(buffer, left, _category(left))

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        entries: Sequence[tuple[Any, Any]],
        leaf_capacity: int,
        interior_capacity: int,
        fill_factor: float = 1.0,
    ) -> "BPlusTree":
        """Build a tree from *sorted, duplicate-free* ``(key, value)`` pairs.

        Leaves are packed to ``fill_factor`` of capacity (1.0 matches the
        cost model's ``ap = ⌈#E / atpp⌉`` leaf-page count).
        """
        tree = cls(leaf_capacity, interior_capacity)
        if not entries:
            return tree
        keys = [key for key, _ in entries]
        if any(not a < b for a, b in zip(keys, keys[1:])):
            raise StorageError("bulk_load requires strictly sorted unique keys")
        per_leaf = max(2, min(leaf_capacity, int(leaf_capacity * fill_factor)))
        leaves: list[_Leaf] = []
        for start in range(0, len(entries), per_leaf):
            chunk = entries[start : start + per_leaf]
            leaf = _Leaf()
            leaf.keys = [key for key, _ in chunk]
            leaf.values = [value for _, value in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        # Avoid an underfull final leaf (rebalance with its predecessor).
        if len(leaves) > 1 and len(leaves[-1].keys) < ceil(leaf_capacity / 2):
            last, before = leaves[-1], leaves[-2]
            combined_keys = before.keys + last.keys
            combined_values = before.values + last.values
            half = len(combined_keys) // 2
            before.keys, last.keys = combined_keys[:half], combined_keys[half:]
            before.values, last.values = combined_values[:half], combined_values[half:]
        level: list[Any] = leaves
        while len(level) > 1:
            groups = [
                level[start : start + interior_capacity]
                for start in range(0, len(level), interior_capacity)
            ]
            # Avoid a lone tail node (it gets a sibling from its full
            # predecessor, which keeps at least two of its >= 3 children).
            if len(groups[-1]) == 1:
                groups[-1].insert(0, groups[-2].pop())
            level = []
            for group in groups:
                node = _Interior()
                node.children = group
                node.keys = [cls._smallest_key(child) for child in group[1:]]
                level.append(node)
        tree._root = level[0]
        tree._size = len(entries)
        tree._leaves = len(leaves)
        return tree

    @staticmethod
    def _smallest_key(node) -> Any:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0]

    # ------------------------------------------------------------------
    # invariants (used by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        self._check_node(self._root, None, None, is_root=True)
        # Leaf chain is sorted and complete.
        collected = [key for key, _ in self.range()]
        assert collected == sorted(collected), "leaf chain out of order"
        assert len(collected) == self._size, "size counter out of sync"
        chain = 0
        leaf = self._leftmost_leaf()
        while leaf is not None:
            chain += 1
            leaf = leaf.next
        assert chain == self._leaves, "leaf counter out of sync"
        for offset, directory in self._columns.items():
            assert directory == self._directory(offset), (
                f"stale column directory at offset {offset}"
            )
        assert self._charges in (None, self._charge_list()), "stale charge list"
        for (lo, hi), memo in self._walks.items():
            assert memo == self._record(lo, hi), f"stale walk of [{lo!r}, {hi!r})"

    def _check_node(self, node, lo, hi, is_root=False) -> int:
        if node.is_leaf:
            assert len(node.keys) == len(node.values)
            if not is_root:
                assert len(node.keys) >= 1, "empty non-root leaf"
            for key in node.keys:
                assert lo is None or not key < lo
                assert hi is None or key < hi
            assert node.keys == sorted(node.keys)
            return 1
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            assert len(node.children) >= 2, "interior node with < 2 children"
        depths = set()
        bounds = [lo, *node.keys, hi]
        for index, child in enumerate(node.children):
            depths.add(self._check_node(child, bounds[index], bounds[index + 1]))
        assert len(depths) == 1, "unbalanced subtree depths"
        return depths.pop() + 1


class _Missing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"


#: Sentinel returned by :meth:`BPlusTree.search` for absent keys (values
#: may legitimately be ``None``).
_MISSING = _Missing()
MISSING = _MISSING


class _WalkRecorder:
    """A charge target that keeps a walk's page ids, interior and leaf
    apart, and charges nothing (:meth:`BPlusTree.walk` charges them)."""

    __slots__ = ("descent", "leaves")

    def __init__(self) -> None:
        self.descent: list[int] = []
        self.leaves: list[int] = []

    def touch(self, page_id, category: str = "page") -> bool:
        if category == _LEAF_CATEGORY:
            self.leaves.append(page_id)
        else:
            self.descent.append(page_id)
        return True


def _touch(buffer, node, category: str) -> None:
    if buffer is not None:
        buffer.touch(id(node), category)


def _touch_write(buffer, node, category: str) -> None:
    if buffer is not None:
        buffer.touch_write(id(node), category)


def _category(node) -> str:
    return _LEAF_CATEGORY if node.is_leaf else _INTERIOR_CATEGORY
