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

A supported query reads the partitions along an :class:`AccessPath`:
the Eq. 33/34 steps of its shape ``(i, j, direction)``, decided once per
ASR (:meth:`AccessSupportRelation.access_path`) and run as one loop.
"""

from __future__ import annotations

import logging
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension, build_extension
from repro.asr.journal import ASRState
from repro.asr.relation import Relation
from repro.context import resolve_buffer
from repro.errors import QueryError, RelationError, StorageError
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


def _keyed(rows: Iterable[Sequence[Cell]]) -> list[tuple[tuple, tuple[Cell, ...]]]:
    """``(row_key(row), row)`` for each of ``rows`` (as a tuple), in key order."""
    return sorted(
        ((row_key(row), row) for row in map(tuple, rows)), key=itemgetter(0)
    )


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


def _prefix_scan(tree: BPlusTree, cell: Cell, buffer) -> list[tuple[Cell, ...]]:
    """The rows ``tree`` clusters under ``cell`` (one descent, its leaves).

    Read through the tree's walk memo (:meth:`BPlusTree.walk`): charged
    when called, as two page runs, and walked once per version of the
    tree; an uncharged read that misses stores nothing.
    """
    lo, hi = prefix_bounds(cell)
    return tree.walk(lo, hi, buffer)


def _equal_cells(cell: Cell) -> tuple[Cell, ...]:
    """``cell`` and the cell ``==`` to it that :func:`cell_key` ranks apart
    (``True`` and ``1``, ``False`` and ``0``)."""
    if isinstance(cell, (bool, int, float)) and cell in (0, 1):
        return (cell, int(cell)) if isinstance(cell, bool) else (cell, bool(cell))
    return (cell,)


def _kept(rows: list, where: dict, first: int, columns: range) -> list:
    """The ``rows`` (their first cell at column ``first``) holding one of
    ``where[c]`` at every ``where`` column ``c`` in ``columns``."""
    for c, cells in where.items():
        if c in columns:
            rows = [row for row in rows if row[c - first] in cells]
    return rows


def _joined(
    rows: list[tuple[Cell, ...]], partition: "StoredPartition", side: int, where: dict
) -> list[tuple[Cell, ...]]:
    """``rows`` joined on their border cell ``row[side]`` with the adjacent
    ``partition``: the left one's rows ending with it (``side`` 0) or the
    right one's starting with it (``-1``), each cell looked up once.  A
    NULL border, or one without a match, is padded with NULL.  The
    partition's rows (or the padding) are held to ``where`` before they
    are joined.
    """
    first, last = partition.first_column, partition.last_column
    columns = range(first + 1, last + 1) if side else range(first, last)
    lookup = partition.lookup_forward if side else partition.lookup_backward
    blank = ((NULL,) * partition.arity,)
    found: dict[Cell, list[tuple[Cell, ...]]] = {}
    joined: list[tuple[Cell, ...]] = []
    for row in rows:
        border = row[side]
        matches = found.get(border)
        if matches is None:
            stored = None if border is NULL else lookup(border)
            matches = found[border] = _kept(stored or blank, where, first, columns)
        if side:
            joined += [row + match[1:] for match in matches]
        else:
            joined += [match[:-1] + row for match in matches]
    return joined


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

    # ------------------------------------------------------------------
    # loading and delta application
    # ------------------------------------------------------------------

    def project(self, extension_row: tuple[Cell, ...]) -> tuple[Cell, ...] | None:
        """This partition's slice of an extension row (None if all NULL)."""
        projected = extension_row[self.first_column : self.last_column + 1]
        if projected.count(NULL) == len(projected):
            return None
        return projected

    def load_from_extension(self, extension_rows: Iterable[tuple[Cell, ...]]) -> None:
        """Project and reference-count full extension rows, then load both trees."""
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
        row = tuple(row)
        self._add(row, row_key(row), resolve_buffer(context))

    def remove_projection(self, row: tuple[Cell, ...], context=None) -> None:
        """Drop one witness of ``row``; delete from trees on 1→0."""
        row = tuple(row)
        self._remove(row, row_key(row), resolve_buffer(context))

    def _add(self, row: tuple[Cell, ...], key: tuple, buffer) -> None:
        """:meth:`add_projection` of ``row`` whose :func:`row_key` is ``key``."""
        counts = self._counts
        count = counts[row] = counts.get(row, 0) + 1
        if count == 1:
            self.forward_tree.insert((key[:2], key), row, buffer)
            self.backward_tree.insert((key[-2:], key), row, buffer)

    def _remove(self, row: tuple[Cell, ...], key: tuple, buffer) -> None:
        """:meth:`remove_projection` of ``row`` whose :func:`row_key` is ``key``."""
        count = self._counts.get(row, 0)
        if count == 0:
            raise RelationError(f"row {row!r} not present in partition")
        if count == 1:
            del self._counts[row]
            self.forward_tree.delete((key[:2], key), buffer)
            self.backward_tree.delete((key[-2:], key), buffer)
        else:
            self._counts[row] = count - 1

    # ------------------------------------------------------------------
    # charged access paths
    # ------------------------------------------------------------------

    def lookup_forward(self, cell: Cell, context=None) -> list[tuple[Cell, ...]]:
        """All rows whose first column equals ``cell`` (forward clustering)."""
        return _prefix_scan(self.forward_tree, cell, resolve_buffer(context))

    def lookup_backward(self, cell: Cell, context=None) -> list[tuple[Cell, ...]]:
        """All rows whose last column equals ``cell`` (backward clustering)."""
        return _prefix_scan(self.backward_tree, cell, resolve_buffer(context))

    def lookup_backward_range(self, lo: Cell, hi: Cell, context=None) -> list[tuple[Cell, ...]]:
        """Rows whose last column lies in ``[lo, hi)`` (value clustering).

        The backward tree is clustered on the partition's last column, so
        when a path terminates in an atomic type this is a genuine index
        range scan over the values — e.g. all paths reaching a ``Price``
        between two bounds.  Rows ending in ``NULL`` (dangling paths) are
        never returned, however low ``lo`` is: a NULL terminal satisfies
        no comparison.
        """
        rows: list[tuple[Cell, ...]] = []
        for _keys, values in self.backward_tree.leaf_slices(
            (max(cell_key(lo), _ABOVE_NULL), ()), (cell_key(hi), ()), resolve_buffer(context)
        ):
            rows += values
        return rows


#: How an :class:`AccessStep` enters its partition (Eqs. 33/34): prefix
#: lookups of the frontier in one clustering, one probe of every page
#: when the query's endpoint lies strictly inside the partition, or —
#: the terminal partition of a value-range query — one range scan of
#: the value clustering.
FORWARD_LOOKUP = "forward-lookup"
BACKWARD_LOOKUP = "backward-lookup"
COLUMN_PROBE = "column-probe"
VALUE_RANGE = "value-range"


class AccessStep(NamedTuple):
    """One partition of an access path and how it is read.

    ``offset`` is the probed column (a :data:`COLUMN_PROBE`'s, else 0)
    and ``advance`` the column whose non-NULL cells are the next
    frontier, both relative to the partition's first column.
    """

    partition: StoredPartition
    probe: str
    offset: int
    advance: int


class AccessPath:
    """The Eq. 33/34 steps answering one query shape ``Q_{i,j}``.

    Built once per ``(i, j, query type)`` by
    :meth:`AccessSupportRelation.access_path` and run as one loop.  It
    holds partitions and column offsets, never trees: a reload swaps a
    partition's trees, and every run reads the ones in place.
    ``direction`` is ``"fw"`` (Eq. 33, left to right from the query's
    ``start``) or ``"bw"`` (Eq. 34, right to left from its ``target``,
    or from its ``lo``/``hi`` range).
    """

    __slots__ = ("steps", "direction", "entry")

    def __init__(self, steps: tuple[AccessStep, ...], direction: str, entry) -> None:
        self.steps = steps
        self.direction = direction
        #: The query attribute holding the first frontier's one cell;
        #: ``None`` when the first step is a :data:`VALUE_RANGE`.
        self.entry = entry

    def run(self, query, context=None) -> set[Cell]:
        """The cells ``query`` reaches, charging every page to ``context``."""
        buffer = resolve_buffer(context)
        entry = self.entry
        frontier = None if entry is None else {getattr(query, entry)}
        for partition, probe, offset, advance in self.steps:
            if probe == COLUMN_PROBE:
                rows = partition.forward_tree.column_probe(offset, frontier, buffer)
            elif probe == VALUE_RANGE:
                rows = partition.lookup_backward_range(query.lo, query.hi, buffer)
            else:
                tree = (
                    partition.forward_tree
                    if probe == FORWARD_LOOKUP
                    else partition.backward_tree
                )
                rows = []
                for cell in frontier:
                    rows += _prefix_scan(tree, cell, buffer)
            frontier = {row[advance] for row in rows if row[advance] is not NULL}
            if not frontier:
                break
        return frontier


class AccessSupportRelation:
    """A materialized, decomposed access support relation.

    Construction from a live object base::

        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m))

    The partitions are the only stored copy of the extension: each holds
    its projection with reference counts, in two clustered B+ trees.
    The undecomposed extension is derived from them — all of it by
    :meth:`recompose`, the rows through one cell by :meth:`rows_at`.
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
        #: Rows of the undecomposed extension, kept by load and deltas.
        self.tuple_count = 0
        self.partitions: list[StoredPartition] = [
            StoredPartition(i, j, labels[i : j + 1], page_size, oid_size)
            for i, j in self.decomposition.partitions
        ]
        #: ``(partition, start, stop)``: the slice of an extension row's
        #: :func:`row_key` that is the partition's projection's key.
        self._key_spans = tuple(
            (partition, 2 * partition.first_column, 2 * partition.last_column + 2)
            for partition in self.partitions
        )
        #: ``(i, j, query type)`` -> its :class:`AccessPath`.
        self._access_paths: dict[tuple, AccessPath] = {}

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
        self.reload(build_extension(db, self.path, self.extension))
        self.state = ASRState.CONSISTENT

    def reload(self, relation: Relation) -> None:
        """Reload every partition from the extension ``relation``'s rows."""
        for partition in self.partitions:
            partition.load_from_extension(relation)
        self.tuple_count = len(relation)

    # ------------------------------------------------------------------
    # delta application (used by repro.asr.maintenance)
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        added: Iterable[tuple[Cell, ...]],
        removed: Iterable[tuple[Cell, ...]],
        context=None,
    ) -> None:
        """Apply exact extension-level row deltas to the partitions: a
        removed row must be stored, an added one must not (a removed row
        with no stored projection raises :class:`RelationError`).

        The removed rows are applied, then the added ones, each side in
        :func:`row_key` order whatever order it comes in, so the trees'
        splits and merges (and so the page counts) depend on the rows
        alone.  Each row is keyed once: every :func:`cell_key` is a pair,
        so a partition's slice of the row key is its projection's
        :func:`row_key`, and its tree keys are cut from that.
        """
        buffer = resolve_buffer(context)
        spans = self._key_spans
        if removed:
            for key, row in _keyed(removed):
                for partition, start, stop in spans:
                    projected = partition.project(row)
                    if projected is not None:
                        partition._remove(projected, key[start:stop], buffer)
                self.tuple_count -= 1
        if added:
            for key, row in _keyed(added):
                for partition, start, stop in spans:
                    projected = partition.project(row)
                    if projected is not None:
                        partition._add(projected, key[start:stop], buffer)
                self.tuple_count += 1

    # ------------------------------------------------------------------
    # reading the extension back (Def. 3.8, Thm. 3.9)
    # ------------------------------------------------------------------

    def rows_at(
        self, column: int, cell: Cell, where: dict | None = None
    ) -> list[tuple[Cell, ...]]:
        """The stored extension rows holding ``cell`` at ``column`` (uncharged).

        A forward lookup enters the partition starting at ``column``, a
        column probe one holding it inside, a backward lookup the last
        partition at the path's last column; border lookups then extend
        each row across the other partitions (:func:`_joined`): Thm.
        3.9's recomposition restricted to the rows through one cell.
        Cells match by ``==``, as a delta's row sets do: at the last
        column, the only one holding atomic values, ``1``, ``1.0`` and
        ``True`` are one cell.  ``where`` maps columns to the cells
        allowed there; each partition's rows are held to it before they
        are joined, so a row failing it is never extended.
        """
        if cell is NULL:
            return []
        partitions = self.partitions
        k = len(partitions) - 1
        if column == partitions[k].last_column:
            rows = []
            for equal in _equal_cells(cell):
                rows += partitions[k].lookup_backward(equal)
        else:
            k = next(k for k, p in enumerate(partitions) if column < p.last_column)
            offset = column - partitions[k].first_column
            if offset:
                rows = partitions[k].forward_tree.column_probe(offset, (cell,))
            else:
                rows = partitions[k].lookup_forward(cell)
        where = where or {}
        entry = partitions[k]
        columns = range(entry.first_column, entry.last_column + 1)
        rows = _kept(rows, where, entry.first_column, columns)
        for left in reversed(partitions[:k]):
            rows = _joined(rows, left, 0, where)
        for right in partitions[k + 1 :]:
            rows = _joined(rows, right, -1, where)
        return rows

    def recompose(self) -> Relation:
        """The extension rejoined from the partitions' rows (Def. 3.8,
        Thm. 3.9; uncharged)."""
        labels = self.path.column_labels()
        return self.decomposition.recompose(
            [
                Relation(labels[p.first_column : p.last_column + 1], p.rows())
                for p in self.partitions
            ],
            self.extension,
        )

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
    def drift_label(self) -> str:
        """:attr:`type_decomposition` as text, the drift monitor's label.

        Keys this design's drift aggregates (the cost model prices the
        type-level view); formatted once, since it never changes.
        """
        return str(self.type_decomposition)

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

    def supports_query(self, i: int, j: int) -> bool:
        """Eq. 35: can this ASR evaluate ``Q_{i,j}`` at all?"""
        return self.extension.supports_query(i, j, self.path.n)

    def access_path(self, query) -> AccessPath:
        """The :class:`AccessPath` answering ``query``'s shape.

        Decided once per ``(i, j, query type)`` — a query with a
        ``start`` runs forward, one with a ``target`` or a ``lo``/``hi``
        range backward — and remembered for the relation's lifetime:
        path, extension, decomposition and partitions never change after
        construction.  Raises :class:`~repro.errors.QueryError` when the
        extension cannot answer ``Q_{i,j}`` (Eq. 35), checked when the
        shape is first asked for.  The query's path is the caller's to
        check.
        """
        key = (query.i, query.j, type(query))
        access = self._access_paths.get(key)
        if access is None:
            access = self._access_paths[key] = self._compile(query)
        return access

    def _compile(self, query) -> AccessPath:
        """The Eq. 33/34 case split over the partitions, for one shape.

        A partition whose left (forward) or right (backward) border
        matches the query's endpoint is entered by lookups in the
        matching clustering (the first and third sums); one with the
        endpoint strictly inside has every page probed (the second sum).
        """
        i, j = query.i, query.j
        if not self.supports_query(i, j):
            raise QueryError(
                f"extension {self.extension.value!r} cannot evaluate "
                f"Q{i},{j} (Eq. 35)"
            )
        first_column = self.path.column_of(i)
        last_column = self.path.column_of(j)
        steps: list[AccessStep] = []
        if hasattr(query, "start"):  # Eq. 33: left to right
            for partition in self.partitions:
                a, b = partition.first_column, partition.last_column
                if b <= first_column:
                    continue
                if a >= last_column:
                    break
                if a < first_column:
                    probe, offset = COLUMN_PROBE, first_column - a
                else:
                    probe, offset = FORWARD_LOOKUP, 0
                advance = min(b, last_column) - a
                steps.append(AccessStep(partition, probe, offset, advance))
            return AccessPath(tuple(steps), "fw", "start")
        ranged = hasattr(query, "lo")
        if not ranged and not hasattr(query, "target"):
            raise QueryError(f"unknown query shape {query!r}")
        for partition in reversed(self.partitions):  # Eq. 34: right to left
            a, b = partition.first_column, partition.last_column
            if a >= last_column:
                continue
            if b <= first_column:
                break
            if ranged and not steps:
                probe, offset = VALUE_RANGE, 0
            elif b > last_column:
                probe, offset = COLUMN_PROBE, last_column - a
            else:
                probe, offset = BACKWARD_LOOKUP, 0
            advance = max(a, first_column) - a
            steps.append(AccessStep(partition, probe, offset, advance))
        return AccessPath(tuple(steps), "bw", None if ranged else "target")

    def consistency_check(self, db: ObjectBase) -> None:
        """Assert the stored state matches a from-scratch rebuild (tests):
        exact reference counts and tree keys per partition, then the
        recomposed extension."""
        expected = build_extension(db, self.path, self.extension)
        for partition in self.partitions:
            trees = (partition.forward_tree, partition.backward_tree)
            for side, tree in enumerate(trees):
                for key, row in tree.items():
                    assert key == tree_keys(row)[side], (
                        f"partition ({partition.first_column},{partition.last_column}) "
                        f"keys {row!r} under {key!r}"
                    )
            expected_counts: Counter = Counter()
            for row in expected:
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
        del expected_counts, tree_rows  # not held through the recomposition
        actual = self.recompose()
        assert actual == expected, (
            "ASR drifted from object base: "
            f"missing={sorted(expected.rows - actual.rows, key=row_key)[:5]} "
            f"spurious={sorted(actual.rows - expected.rows, key=row_key)[:5]}"
        )
        assert self.tuple_count == len(expected), (
            f"ASR counts {self.tuple_count} rows for {len(expected)}"
        )

    def __repr__(self) -> str:
        flag = "" if self.state is ASRState.CONSISTENT else f", {self.state.value}"
        return (
            f"AccessSupportRelation({self.path}, {self.extension.value}, "
            f"dec={self.decomposition}, rows={self.tuple_count}{flag})"
        )
