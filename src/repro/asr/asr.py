"""Stored access support relations (sections 3 and 5.2).

An :class:`AccessSupportRelation` materializes one extension of the ASR
for a path expression, split according to a decomposition.  Each
partition is kept in **two redundant B+ trees** (following Valduriez's
join indices, section 5.2): one clustered on the partition's *first*
column — serving forward lookups — and one on its *last* column — serving
backward lookups.

Partition contents are *projections* of the undecomposed extension, so a
single partition row can be witnessed by several extension rows; the
partition therefore reference-counts its rows and physically inserts or
deletes tree entries only on the 0↔1 transitions.  This is what makes
incremental maintenance (:mod:`repro.asr.maintenance`) exact.

Each tree entry is keyed ``(prefix, tie-break)`` (:func:`tree_keys`):
the clustering cell's :func:`cell_key`, then the whole row's flat
:func:`row_key` — one tuple per row, shared by its two keys.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension, build_extension
from repro.asr.journal import ASRState
from repro.asr.relation import Relation
from repro.context import resolve_buffer
from repro.errors import RelationError, StorageError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID, Cell
from repro.gom.paths import PathExpression
from repro.gom.types import NULL
from repro.storage.btree import BPlusTree
from repro.storage.pages import (
    DEFAULT_OID_SIZE,
    DEFAULT_PAGE_SIZE,
    btree_fanout,
    tuples_per_page,
)

_logger = logging.getLogger("repro.asr")


class _KeyBound:
    """A sentinel sorting below (``BOTTOM``) or above (``TOP``) every cell.

    Real cells occupy ranks 0–4 of :func:`cell_key`; the bounds sit at
    ranks -1 and 5 so half-open scans can be made one-sided without
    inventing a fake "largest" value of any particular type.  They are
    valid *bounds* only — they never appear inside stored rows.
    """

    __slots__ = ("_name", "_key")

    def __init__(self, name: str, rank: int) -> None:
        self._name = name
        self._key = (rank, 0)

    @property
    def key(self) -> tuple:
        return self._key

    def __repr__(self) -> str:
        return self._name


BOTTOM = _KeyBound("BOTTOM", -1)
TOP = _KeyBound("TOP", 5)


def cell_key(cell: Cell) -> tuple:
    """A total order over cells: NULL < OIDs < booleans < numbers < strings.

    The pseudo-cells :data:`BOTTOM` and :data:`TOP` compare below and
    above everything else, for use as open range-scan endpoints.
    """
    if isinstance(cell, OID):  # first: most stored cells are OIDs
        return (1, cell[0])
    if cell is NULL:
        return (0, 0)
    if isinstance(cell, _KeyBound):
        return cell.key
    if isinstance(cell, bool):
        return (2, int(cell))
    if isinstance(cell, (int, float)):
        return (3, float(cell))
    return (4, str(cell))


#: The smallest key above NULL's ``(0, 0)``: where a value-range scan
#: starts when its lower bound (``BOTTOM``, or ``NULL`` itself) is lower.
_ABOVE_NULL = (0, 1)


def row_key(row: Sequence[Cell]) -> tuple:
    """A total order over whole rows: the flat ``(rank0, v0, rank1, v1, …)``.

    Every :func:`cell_key` has length 2, so concatenating them orders
    rows exactly as the tuple of per-cell keys would, in one tuple.
    """
    return tuple(chain.from_iterable(map(cell_key, row)))


def tree_keys(
    row: Sequence[Cell], prefixes: dict[tuple, tuple] | None = None
) -> tuple[tuple, tuple]:
    """The forward and backward tree keys of a partition row.

    Each is ``(prefix, row_key(row))``: the clustering cell's
    :func:`cell_key` — the first cell's forward, the last cell's
    backward — then the flat :func:`row_key` as the unique tie-break,
    one tuple shared by the two keys.  A load passes one ``prefixes``
    dict for all its rows, so rows with the same border cell share its
    prefix tuple.

    The pair orders exactly as the flat row key would (forward) or as
    the last cell's key prepended to it (backward); it stays a pair so
    that ``key[1]`` is the whole tie-break — the benchmark ladder's
    storage sheet (``benchmarks/ladder/layers.py``) makes unused keys
    beside stored ones as ``(key[0], key[1] + ((9, 0),))``.
    """
    key = row_key(row)
    first, last = key[:2], key[-2:]
    if prefixes is not None:
        first = prefixes.setdefault(first, first)
        last = prefixes.setdefault(last, last)
    return (first, key), (last, key)


def prefix_bounds(cell: Cell) -> tuple[tuple, tuple]:
    """The half-open tree-key interval clustered under ``cell``.

    Tree keys are ``(cell_key(cell), tie-break)`` with a non-empty tuple
    as tie-break: ``(prefix, ())`` sorts before every one of them, and a
    first element that *extends* the prefix sorts after them all yet
    before the next prefix.
    """
    prefix = cell_key(cell)
    return (prefix, ()), (prefix + (0,),)


def _concatenated(slices) -> list:
    """The values of a :meth:`BPlusTree.leaf_slices` walk, leaf after leaf."""
    rows: list = []
    for _keys, values in slices:
        rows += values
    return rows


class StoredPartition:
    """One partition ``E^{i,j}_X`` with its two clustered B+ trees.

    ``first_column``/``last_column`` are the partition's borders in the
    *undecomposed* relation's column numbering (Definition 3.8).
    """

    def __init__(
        self,
        first_column: int,
        last_column: int,
        labels: Sequence[str],
        page_size: int = DEFAULT_PAGE_SIZE,
        oid_size: int = DEFAULT_OID_SIZE,
    ) -> None:
        if last_column <= first_column:
            raise StorageError("a partition spans at least two columns")
        self.first_column = first_column
        self.last_column = last_column
        self.labels = tuple(labels)
        self.page_size = page_size
        self.oid_size = oid_size
        self.tuples_per_page = tuples_per_page(
            first_column, last_column, page_size, oid_size
        )
        self._fanout = btree_fanout(page_size=page_size, oid_size=oid_size)
        self._counts: Counter[tuple[Cell, ...]] = Counter()
        self.forward_tree = BPlusTree(self.tuples_per_page, self._fanout)
        self.backward_tree = BPlusTree(self.tuples_per_page, self._fanout)

    # ------------------------------------------------------------------
    # geometry / statistics
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.last_column - self.first_column + 1

    @property
    def tuple_count(self) -> int:
        """``#E^{i,j}_X`` — distinct rows stored."""
        return len(self._counts)

    @property
    def byte_size(self) -> int:
        """``as^{i,j}_X`` (Eq. 15)."""
        return self.tuple_count * self.arity * self.oid_size

    @property
    def page_count(self) -> int:
        """``ap^{i,j}_X`` (Eq. 16) — data (leaf) pages of one clustering."""
        return self.forward_tree.leaf_count() if self.tuple_count else 0

    def rows(self) -> Iterator[tuple[Cell, ...]]:
        return iter(self._counts)

    def as_relation(self) -> Relation:
        return Relation(self.labels, self._counts.keys())

    # ------------------------------------------------------------------
    # loading and delta application
    # ------------------------------------------------------------------

    def project(self, extension_row: tuple[Cell, ...]) -> tuple[Cell, ...] | None:
        """This partition's slice of an extension row (None if all NULL)."""
        projected = extension_row[self.first_column : self.last_column + 1]
        if all(cell is NULL for cell in projected):
            return None
        return projected

    def bulk_load(self, rows: Iterable[tuple[Cell, ...]]) -> None:
        """Replace the contents with ``rows`` (each counted once)."""
        counts: Counter[tuple[Cell, ...]] = Counter()
        for row in rows:
            if len(row) != self.arity:
                raise RelationError(
                    f"partition row arity {len(row)} != {self.arity}"
                )
            counts[tuple(row)] += 1
        self._load(counts)

    def load_from_extension(self, extension_rows: Iterable[tuple[Cell, ...]]) -> None:
        """Project and reference-count full extension rows, then bulk load."""
        counts: Counter[tuple[Cell, ...]] = Counter()
        for extension_row in extension_rows:
            projected = self.project(extension_row)
            if projected is not None:
                counts[projected] += 1
        self._load(counts)

    def _load(self, counts: Counter[tuple[Cell, ...]]) -> None:
        """Adopt ``counts`` and bulk-load both trees from its rows.

        Each row is encoded once (:func:`tree_keys`), its two keys share
        the row's flat key, and all rows share one tuple per border cell.
        """
        self._counts = counts
        prefixes: dict[tuple, tuple] = {}
        forward, backward = [], []
        for row in counts:
            forward_key, backward_key = tree_keys(row, prefixes)
            forward.append((forward_key, row))
            backward.append((backward_key, row))
        forward.sort()
        backward.sort()
        self.forward_tree = BPlusTree.bulk_load(forward, self.tuples_per_page, self._fanout)
        self.backward_tree = BPlusTree.bulk_load(backward, self.tuples_per_page, self._fanout)

    def add_projection(self, row: tuple[Cell, ...], context=None) -> None:
        """Reference one witness of ``row``; insert trees on 0→1."""
        buffer = resolve_buffer(context)
        row = tuple(row)
        self._counts[row] += 1
        if self._counts[row] == 1:
            forward, backward = tree_keys(row)
            self.forward_tree.insert(forward, row, buffer)
            self.backward_tree.insert(backward, row, buffer)

    def remove_projection(self, row: tuple[Cell, ...], context=None) -> None:
        """Drop one witness of ``row``; delete from trees on 1→0."""
        buffer = resolve_buffer(context)
        row = tuple(row)
        count = self._counts.get(row, 0)
        if count == 0:
            raise RelationError(f"row {row!r} not present in partition")
        if count == 1:
            del self._counts[row]
            forward, backward = tree_keys(row)
            self.forward_tree.delete(forward, buffer)
            self.backward_tree.delete(backward, buffer)
        else:
            self._counts[row] = count - 1

    # ------------------------------------------------------------------
    # charged access paths
    # ------------------------------------------------------------------

    def lookup_forward(self, cell: Cell, context=None) -> list[tuple[Cell, ...]]:
        """All rows whose first column equals ``cell`` (forward clustering)."""
        return self._prefix_scan(self.forward_tree, cell, resolve_buffer(context))

    def lookup_backward(self, cell: Cell, context=None) -> list[tuple[Cell, ...]]:
        """All rows whose last column equals ``cell`` (backward clustering)."""
        return self._prefix_scan(self.backward_tree, cell, resolve_buffer(context))

    def lookup_backward_range(self, lo: Cell, hi: Cell, context=None) -> list[tuple[Cell, ...]]:
        """Rows whose last column lies in ``[lo, hi)`` (value clustering).

        The backward tree is clustered on the partition's last column, so
        when a path terminates in an atomic type this is a genuine index
        range scan over the values — e.g. all paths reaching a ``Price``
        between two bounds.  Rows ending in ``NULL`` (dangling paths) are
        never returned, however low ``lo`` is: a NULL terminal satisfies
        no comparison.
        """
        return _concatenated(
            self.backward_tree.leaf_slices(
                (max(cell_key(lo), _ABOVE_NULL), ()),
                (cell_key(hi), ()),
                resolve_buffer(context),
            )
        )

    @staticmethod
    def _prefix_scan(tree: BPlusTree, cell: Cell, buffer) -> list[tuple[Cell, ...]]:
        lo, hi = prefix_bounds(cell)
        return _concatenated(tree.leaf_slices(lo, hi, buffer))

    def scan(self, context=None) -> list[tuple[Cell, ...]]:
        """Read every row, charging all data pages (exhaustive inspection)."""
        return _concatenated(
            self.forward_tree.leaf_slices(context=resolve_buffer(context))
        )

    def select(
        self, offset: int, cells: set[Cell], context=None
    ) -> list[tuple[Cell, ...]]:
        """Rows whose column ``offset`` is in the set ``cells``.

        The access path of a query endpoint strictly inside the
        partition: no clustering helps, so every data page is inspected
        and charged exactly as :meth:`scan` charges it (the second sum
        of Eqs. 33/34).  Membership is decided a page at a time, by one
        set test of ``cells`` against the leaf's cached column set
        (:meth:`BPlusTree.column_slices`) — rows are only looked at on
        the pages that hold a match.
        """
        rows: list = []
        for values, column in self.forward_tree.column_slices(
            offset, resolve_buffer(context)
        ):
            if not cells.isdisjoint(column):
                rows += [row for row in values if row[offset] in cells]
        return rows


class AccessSupportRelation:
    """A materialized, decomposed access support relation.

    Construction from a live object base::

        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m))

    The undecomposed extension is kept as the logical source of truth
    (``self.extension_relation``); each partition stores its projection
    with reference counts, in two clustered B+ trees.
    """

    def __init__(
        self,
        path: PathExpression,
        extension: Extension,
        decomposition: Decomposition | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        oid_size: int = DEFAULT_OID_SIZE,
    ) -> None:
        self.path = path
        self.extension = extension
        self.decomposition = decomposition or Decomposition.none(path.m)
        self.decomposition.validate_for(path.m)
        self.page_size = page_size
        self.oid_size = oid_size
        #: Crash-consistency state (see :mod:`repro.asr.journal`); the
        #: managing :class:`~repro.asr.manager.ASRManager` drives the
        #: transitions, query layers only read it.
        self.state = ASRState.CONSISTENT
        labels = path.column_labels()
        self.extension_relation = Relation(labels)
        self.partitions: list[StoredPartition] = [
            StoredPartition(i, j, labels[i : j + 1], page_size, oid_size)
            for i, j in self.decomposition.partitions
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        db: ObjectBase,
        path: PathExpression,
        extension: Extension,
        decomposition: Decomposition | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        oid_size: int = DEFAULT_OID_SIZE,
    ) -> "AccessSupportRelation":
        """Materialize the ASR for ``path`` from the object base."""
        asr = cls(path, extension, decomposition, page_size, oid_size)
        asr.rebuild(db)
        return asr

    def rebuild(self, db: ObjectBase) -> None:
        """Recompute the extension from scratch and reload every partition.

        A rebuild restores consistency unconditionally, so it also lifts
        any quarantine.
        """
        self.extension_relation = build_extension(db, self.path, self.extension)
        rows = self.extension_relation.rows
        for partition in self.partitions:
            partition.load_from_extension(rows)
        self.state = ASRState.CONSISTENT

    # ------------------------------------------------------------------
    # delta application (used by repro.asr.maintenance)
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[Cell, ...]],
        removed: Iterable[tuple[Cell, ...]],
        context=None,
    ) -> None:
        """Apply extension-level row deltas to the logical relation and trees."""
        buffer = resolve_buffer(context)
        for row in removed:
            row = tuple(row)
            if row not in self.extension_relation:
                continue
            self.extension_relation.discard(row)
            for partition in self.partitions:
                projected = partition.project(row)
                if projected is not None:
                    partition.remove_projection(projected, buffer)
        for row in added:
            row = tuple(row)
            if row in self.extension_relation:
                continue
            self.extension_relation.add(row)
            for partition in self.partitions:
                projected = partition.project(row)
                if projected is not None:
                    partition.add_projection(projected, buffer)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @cached_property
    def design(self) -> str:
        """``"<extension>:<decomposition>"``, the physical design's label.

        Names the ASR that served a read (the measured row's ``asr``
        note, ``EvaluationResult.strategy``); neither half changes after
        construction.
        """
        return f"{self.extension.value}:{self.decomposition}"

    @cached_property
    def type_decomposition(self) -> Decomposition:
        """The decomposition expressed over type indices (``m == n``).

        Partitions are declared over *columns* of the extension; the
        cost model speaks type indices.  A set-valued step owns two
        columns (collection OID and element) that map to the same type
        index, so when *both* are borders the type-level view is
        strictly coarser than the physical design — the cost model
        prices one fewer partition than materialized.  That collapse is
        logged, once (path and decomposition never change after
        construction), so a mispriced design is visible instead of
        quietly skewing the advisor, the planner and the drift report.
        """
        columns = self.decomposition.borders
        borders = tuple(self.path.type_index_of_column(c) for c in columns)
        unique = tuple(dict.fromkeys(borders))
        if len(unique) != len(borders):
            _logger.warning(
                "decomposition columns %s of %s collapse to type borders "
                "%s; the cost model prices a coarser decomposition than "
                "the one materialized",
                tuple(c for c, b in zip(columns, borders) if borders.count(b) > 1),
                self.path,
                unique,
            )
        return Decomposition(unique)

    @property
    def quarantined(self) -> bool:
        """True while crash recovery is pending: trees may be torn and
        queries must fall back instead of reading them."""
        return self.state is ASRState.QUARANTINED

    @property
    def tuple_count(self) -> int:
        """Rows of the undecomposed extension."""
        return len(self.extension_relation)

    @property
    def total_bytes(self) -> int:
        """Σ over partitions of ``as^{i,j}`` (non-redundant representation)."""
        return sum(partition.byte_size for partition in self.partitions)

    @property
    def total_pages(self) -> int:
        """Σ over partitions of ``ap^{i,j}`` (one clustering)."""
        return sum(partition.page_count for partition in self.partitions)

    def partition_at(self, first_column: int) -> StoredPartition:
        """The partition whose left border is ``first_column``."""
        for partition in self.partitions:
            if partition.first_column == first_column:
                return partition
        raise StorageError(f"no partition starts at column {first_column}")

    def partition_covering(self, column: int) -> StoredPartition:
        """The partition containing ``column`` (leftmost when on a border)."""
        i, _ = self.decomposition.partition_containing(column)
        return self.partition_at(i)

    def supports_query(self, i: int, j: int) -> bool:
        """Eq. 35: can this ASR evaluate ``Q_{i,j}`` at all?"""
        return self.extension.supports_query(i, j, self.path.n)

    def consistency_check(self, db: ObjectBase) -> None:
        """Assert the stored state matches a from-scratch rebuild (tests)."""
        expected = build_extension(db, self.path, self.extension)
        actual = self.extension_relation
        missing = expected.rows - actual.rows
        spurious = actual.rows - expected.rows
        assert not missing and not spurious, (
            f"ASR drifted from object base: missing={sorted(missing, key=row_key)[:5]} "
            f"spurious={sorted(spurious, key=row_key)[:5]}"
        )
        actual.check_cell_index()
        for partition in self.partitions:
            trees = (partition.forward_tree, partition.backward_tree)
            for side, tree in enumerate(trees):
                for key, row in tree.items():
                    assert key == tree_keys(row)[side], (
                        f"partition ({partition.first_column},{partition.last_column}) "
                        f"keys {row!r} under {key!r}"
                    )
            expected_counts: Counter = Counter()
            for row in expected.rows:
                projected = partition.project(row)
                if projected is not None:
                    expected_counts[projected] += 1
            assert expected_counts == partition._counts, (
                f"partition ({partition.first_column},{partition.last_column}) "
                "reference counts drifted"
            )
            tree_rows = {value for _, value in partition.forward_tree.items()}
            assert tree_rows == set(expected_counts), "forward tree drifted"
            tree_rows = {value for _, value in partition.backward_tree.items()}
            assert tree_rows == set(expected_counts), "backward tree drifted"

    def __repr__(self) -> str:
        flag = "" if self.state is ASRState.CONSISTENT else f", {self.state.value}"
        return (
            f"AccessSupportRelation({self.path}, {self.extension.value}, "
            f"dec={self.decomposition}, rows={self.tuple_count}{flag})"
        )
