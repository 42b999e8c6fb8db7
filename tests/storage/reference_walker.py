"""The row-at-a-time leaf-chain loop, kept as the reference for tests.

This is ``BPlusTree._range`` as it stood before the tree handed out leaf
pages whole (:meth:`~repro.storage.btree.BPlusTree.leaf_slices`): one
bound test, one 2-tuple and one ``yield`` per row.  The product no
longer contains it; the tests compare the page-at-a-time walker against
it — same rows, same pages, same order.
"""

from bisect import bisect_left


class RecordingBuffer:
    """A buffer scope that charges nothing and remembers every touch."""

    def __init__(self) -> None:
        self.touched: list[tuple[int, str]] = []

    def touch(self, page_id, category: str = "page") -> bool:
        self.touched.append((page_id, category))
        return True

    def touch_write(self, page_id, category: str = "page") -> bool:
        raise AssertionError("a read path dirtied a page")


def reference_range(tree, lo, hi, buffer):
    """Yield ``(key, value)`` for ``lo <= key < hi``, a row at a time."""
    if lo is None:
        leaf = tree._leftmost_leaf(buffer)
        index = 0
    else:
        leaf = tree._descend(lo, buffer)
        index = bisect_left(leaf.keys, lo)
    while leaf is not None:
        buffer.touch(id(leaf), "btree_leaf")
        while index < len(leaf.keys):
            key = leaf.keys[index]
            if hi is not None and not key < hi:
                return
            yield key, leaf.values[index]
            index += 1
        leaf = leaf.next
        index = 0
