"""Orion-style nested attribute indexes (Kim, Kim & Dale).

A nested attribute index maps the *terminal value* of a path directly to
the set of anchor objects: conceptually the non-contiguous projection of
the canonical extension onto its first and last columns.  It answers the
whole-path backward query in one lookup and nothing else — no forward
queries, no partial ranges — which is precisely the limitation access
support relations remove.

The implementation reuses this library's maintenance machinery.  No
extension row can be rebuilt from a ``(value, anchor)`` pair, so the
index keeps the canonical extension beside its pairs, as an unregistered
and undecomposed canonical
:class:`~repro.asr.asr.AccessSupportRelation` maintained uncharged; its
``rows_at`` is the index's, so :class:`~repro.asr.manager.ASRManager`
drives the index through ``neighbourhood_delta`` and ``apply_delta``
exactly like an ASR.  The reference-counted pairs live in one B+ tree
clustered on the values.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable

from repro.asr.asr import AccessSupportRelation, cell_key, prefix_bounds, row_key
from repro.asr.extensions import Extension, build_extension
from repro.asr.journal import ASRState
from repro.context import resolve_buffer
from repro.errors import PathError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID, Cell
from repro.gom.paths import PathExpression
from repro.storage.btree import BPlusTree
from repro.storage.pages import (
    DEFAULT_OID_SIZE,
    DEFAULT_PAGE_SIZE,
    btree_fanout,
)

#: The anchor of a stored ``(value, anchor)`` pair.
_ANCHOR = itemgetter(1)


class NestedAttributeIndex:
    """``terminal value → anchor objects`` over one path expression.

    Register with an :class:`~repro.asr.manager.ASRManager` to keep it
    maintained under updates; it deliberately mimics the ASR interface
    the manager relies on (``path``, ``extension``, ``rows_at``,
    ``apply_delta``, ``reload``, ``consistency_check``).
    """

    def __init__(
        self,
        path: PathExpression,
        page_size: int = DEFAULT_PAGE_SIZE,
        oid_size: int = DEFAULT_OID_SIZE,
    ) -> None:
        if not path.terminal_is_atomic:
            raise PathError(
                "nested attribute indexes require an atomic path terminal"
            )
        self.path = path
        self.extension = Extension.CANONICAL
        self.page_size = page_size
        self.oid_size = oid_size
        # (value, anchor) pairs: ~2 cells per entry.
        self.pairs_per_page = page_size // (2 * oid_size)
        self._fanout = btree_fanout(page_size=page_size, oid_size=oid_size)
        #: The canonical extension, read by :meth:`rows_at`; never charged.
        self.canonical = AccessSupportRelation(path, Extension.CANONICAL)
        self._counts: Counter[tuple[Cell, Cell]] = Counter()
        self.tree = BPlusTree(self.pairs_per_page, self._fanout)
        #: Crash-consistency state, mirrored from the ASR interface so
        #: the manager's quarantine and recovery drive this index too.
        self.state = ASRState.CONSISTENT

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, db: ObjectBase, path: PathExpression) -> "NestedAttributeIndex":
        index = cls(path)
        index.rebuild(db)
        return index

    def rebuild(self, db: ObjectBase) -> None:
        """Recompute from scratch (initial load)."""
        self.reload(build_extension(db, self.path, Extension.CANONICAL))
        self.state = ASRState.CONSISTENT

    def reload(self, relation) -> None:
        """Load the canonical extension ``relation``; rebuild the pairs."""
        self.canonical.reload(relation)
        counts: Counter[tuple[Cell, Cell]] = Counter()
        for row in relation:
            counts[(row[-1], row[0])] += 1
        self._counts = counts
        entries = sorted(
            ((cell_key(value), cell_key(anchor)), (value, anchor))
            for value, anchor in counts
        )
        self.tree = BPlusTree.bulk_load(entries, self.pairs_per_page, self._fanout)

    @property
    def quarantined(self) -> bool:
        """True while crash recovery is pending (see repro.asr.journal)."""
        return self.state is ASRState.QUARANTINED

    # ------------------------------------------------------------------
    # maintenance (driven by ASRManager)
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[Cell, ...]],
        removed: Iterable[tuple[Cell, ...]],
        context=None,
    ) -> None:
        """Apply exact canonical-extension row deltas to the pair store,
        each side in :func:`~repro.asr.asr.row_key` order whatever order
        it comes in, so the tree's page counts depend on the rows alone."""
        buffer = resolve_buffer(context)
        added = sorted(added, key=row_key)
        removed = sorted(removed, key=row_key)
        self.canonical.apply_delta(added, removed)
        for row in removed:
            pair = (row[-1], row[0])
            remaining = self._counts[pair] - 1
            if remaining:
                self._counts[pair] = remaining
            else:
                del self._counts[pair]
                self.tree.delete((cell_key(pair[0]), cell_key(pair[1])), buffer)
        for row in added:
            pair = (row[-1], row[0])
            self._counts[pair] += 1
            if self._counts[pair] == 1:
                self.tree.insert(
                    (cell_key(pair[0]), cell_key(pair[1])), pair, buffer
                )

    def rows_at(self, column: int, cell: Cell, where=None) -> list[tuple[Cell, ...]]:
        """The canonical extension's rows holding ``cell`` at ``column``."""
        return self.canonical.rows_at(column, cell, where)

    # ------------------------------------------------------------------
    # the one supported query
    # ------------------------------------------------------------------

    def supports_query(self, i: int, j: int) -> bool:
        """Only the whole-path backward lookup is answerable."""
        return i == 0 and j == self.path.n

    def lookup(self, value: Cell, context=None) -> set[OID]:
        """Anchors whose path reaches ``value`` — one index probe."""
        lo, hi = prefix_bounds(value)
        return self._anchors(lo, hi, context)

    def _anchors(self, lo: tuple, hi: tuple, context) -> set[OID]:
        """The anchors of the pairs keyed in ``[lo, hi)``, a leaf at a time."""
        anchors: set[OID] = set()
        for _keys, pairs in self.tree.leaf_slices(lo, hi, resolve_buffer(context)):
            anchors.update(map(_ANCHOR, pairs))
        return anchors

    # ------------------------------------------------------------------
    # statistics / verification
    # ------------------------------------------------------------------

    @property
    def pair_count(self) -> int:
        return len(self._counts)

    @property
    def tuple_count(self) -> int:
        """ASR-interface shim: stored (value, anchor) pairs."""
        return len(self._counts)

    #: ASR-interface shim: a nested index has no partitions of its own.
    partitions: tuple = ()

    @property
    def total_bytes(self) -> int:
        return self.pair_count * 2 * self.oid_size

    @property
    def total_pages(self) -> int:
        return self.tree.leaf_count() if self.pair_count else 0

    @property
    def decomposition(self):
        """ASR-interface shim: the index has no contiguous decomposition."""
        return None

    def consistency_check(self, db: ObjectBase) -> None:
        """Assert the canonical extension matches a from-scratch rebuild,
        and the stored pairs match that extension."""
        self.canonical.consistency_check(db)
        rows = self.canonical.recompose()
        expected_pairs = Counter((row[-1], row[0]) for row in rows)
        assert expected_pairs == self._counts, "nested index pair counts drifted"
        stored = {pair for _key, pair in self.tree.items()}
        assert stored == set(expected_pairs), "nested index tree drifted"

    def __repr__(self) -> str:
        return (
            f"NestedAttributeIndex({self.path}, {self.pair_count} value/anchor pairs)"
        )
