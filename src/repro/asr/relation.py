"""A minimal relational algebra for access support relations.

The paper composes access support relations from the auxiliary relations
``E_0 … E_{n-1}`` with four join operators — natural, full outer, left
outer and right outer — always joining *the last column of the left
operand with the first column of the right operand* (section 3, the
``⋈ / ⟗ / ⟕ / ⟖`` notation).  This module provides exactly that algebra
over in-memory set-of-tuple relations whose cells are OIDs, atomic
values, or NULL.

NULL join keys never match (standard outer-join semantics); this is what
makes the chained outer joins compute maximal partial paths.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import RelationError
from repro.gom.objects import Cell
from repro.gom.types import NULL


class JoinKind(str, Enum):
    """The four path-composition joins of section 3."""

    NATURAL = "natural"
    LEFT_OUTER = "left_outer"
    RIGHT_OUTER = "right_outer"
    FULL_OUTER = "full_outer"


class Relation:
    """An unordered, duplicate-free relation over ``Cell`` tuples.

    ``columns`` are display labels only; positions identify columns.
    Instances are mutable (rows can be added/removed — index maintenance
    needs that) but all algebra operators return fresh relations.

    Beside the rows sits a **by-cell index** (``cell → rows holding it``,
    non-NULL cells only): the stored relation is the row set, "the rows
    through cell ``c``" is the derived one every update asks for
    (:func:`repro.asr.maintenance.neighbourhood_delta`), and recomputing
    it by a pass over the rows made each update cost ``O(#rows)``.
    :meth:`containing` builds the index on first use and :meth:`add` /
    :meth:`discard` keep it from then on, so it is correct whoever
    constructed the relation; algebra results start without one.
    Buckets are plain lists (a cell sits on a handful of paths; sets
    would triple the footprint), so discarding a row is linear in the
    buckets of its cells.
    """

    __slots__ = ("columns", "_rows", "_by_cell")

    def __init__(
        self, columns: Sequence[str], rows: Iterable[tuple[Cell, ...]] = ()
    ) -> None:
        self.columns: tuple[str, ...] = tuple(columns)
        self._rows: set[tuple[Cell, ...]] = set()
        self._by_cell: dict[Cell, list[tuple[Cell, ...]]] | None = None
        for row in rows:
            self.add(row)

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> frozenset[tuple[Cell, ...]]:
        """An immutable snapshot of the rows."""
        return frozenset(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Cell, ...]]:
        return iter(self._rows)

    def __contains__(self, row: tuple[Cell, ...]) -> bool:
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - relations used as values only
        raise TypeError("Relation is unhashable")

    def __repr__(self) -> str:
        return f"Relation({list(self.columns)}, {len(self)} rows)"

    def add(self, row: tuple[Cell, ...]) -> None:
        """Insert ``row`` after checking its arity."""
        if len(row) != len(self.columns):
            raise RelationError(
                f"row arity {len(row)} does not match relation arity "
                f"{len(self.columns)}"
            )
        row = tuple(row)
        if self._by_cell is not None and row not in self._rows:
            self._index(row)
        self._rows.add(row)

    def discard(self, row: tuple[Cell, ...]) -> None:
        row = tuple(row)
        if self._by_cell is not None and row in self._rows:
            by_cell = self._by_cell
            for cell in set(row):
                if cell is not NULL:
                    bucket = by_cell[cell]
                    bucket.remove(row)
                    if not bucket:
                        del by_cell[cell]
        self._rows.discard(row)

    # ------------------------------------------------------------------
    # by-cell index
    # ------------------------------------------------------------------

    def _index(self, row: tuple[Cell, ...]) -> None:
        """Enter a row not yet indexed under each of its non-NULL cells."""
        by_cell = self._by_cell
        for cell in row:
            if cell is not NULL:
                bucket = by_cell.get(cell)
                if bucket is None:
                    by_cell[cell] = [row]
                elif bucket[-1] is not row:
                    # ``is``: a cell repeated within this row (a cyclic
                    # path) found the entry its first column just made.
                    bucket.append(row)

    def index_cells(self) -> None:
        """Build the by-cell index now (a no-op once it exists).

        :meth:`containing` builds it on first use; a builder that swaps
        a relation in under a lock (``ASRManager.rematerialize``)
        calls this first, so the one pass over the rows lands in its
        unlocked build rather than in the first update after the swap.
        """
        if self._by_cell is None:
            self._by_cell = {}
            for row in self._rows:
                self._index(row)

    def containing(self, cell: Cell) -> tuple[tuple[Cell, ...], ...]:
        """The rows holding ``cell`` at any column (none for NULL).

        A keyed lookup, independent of the relation's size.  Cells match
        as dictionary keys do, which for the values a cell can take is
        how ``==`` matches them (``1``, ``1.0`` and ``True`` are one key).
        """
        if cell is NULL:
            return ()
        self.index_cells()
        return tuple(self._by_cell.get(cell, ()))

    def check_cell_index(self) -> None:
        """Assert the by-cell index equals a pass over the rows (tests).

        By counting, so the check holds no second index in memory: every
        entry is a distinct stored row holding its cell, and there are as
        many entries as (row, distinct non-NULL cell) pairs.
        """
        self.index_cells()
        entries = 0
        for cell, bucket in self._by_cell.items():
            assert bucket and len(set(bucket)) == len(bucket), (
                f"by-cell index: empty or repeating bucket at {cell!r}"
            )
            for row in bucket:
                assert row in self._rows and cell in row, (
                    f"by-cell index: {row!r} filed under {cell!r}"
                )
            entries += len(bucket)
        pairs = sum(len(set(row) - {NULL}) for row in self._rows)
        assert entries == pairs, (
            f"by-cell index holds {entries} entries for {pairs} (row, cell) pairs"
        )

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def join(self, other: "Relation", kind: JoinKind = JoinKind.NATURAL) -> "Relation":
        """Join on ``self``'s last column = ``other``'s first column.

        The shared column appears once in the result, so the result arity
        is ``self.arity + other.arity - 1``.  Unmatched rows are padded
        with NULL according to ``kind``; NULL keys never match.
        """
        if self.arity == 0 or other.arity == 0:
            raise RelationError("cannot join zero-arity relations")
        result = Relation(self.columns + other.columns[1:])
        right_index: dict[Cell, list[tuple[Cell, ...]]] = defaultdict(list)
        for right_row in other._rows:
            if right_row[0] is not NULL:
                right_index[right_row[0]].append(right_row)
        matched_right: set[tuple[Cell, ...]] = set()
        left_pad = (NULL,) * (self.arity - 1)
        right_pad = (NULL,) * (other.arity - 1)
        keep_left = kind in (JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER)
        keep_right = kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER)
        for left_row in self._rows:
            key = left_row[-1]
            matches = right_index.get(key, ()) if key is not NULL else ()
            if matches:
                for right_row in matches:
                    result._rows.add(left_row + right_row[1:])
                    matched_right.add(right_row)
            elif keep_left:
                result._rows.add(left_row + right_pad)
        if keep_right:
            for right_row in other._rows:
                if right_row not in matched_right:
                    result._rows.add(left_pad + right_row)
        return result

    def project(
        self, columns: Sequence[int], drop_all_null: bool = True
    ) -> "Relation":
        """Project onto column positions, eliminating duplicates.

        ``drop_all_null`` removes rows whose projected cells are all NULL —
        such rows carry no path information and the paper's partition
        cardinality formulas do not count them.
        """
        for column in columns:
            if not 0 <= column < self.arity:
                raise RelationError(f"column {column} out of range 0..{self.arity - 1}")
        labels = [self.columns[c] for c in columns]
        result = Relation(labels)
        for row in self._rows:
            projected = tuple(row[c] for c in columns)
            if drop_all_null and all(cell is NULL for cell in projected):
                continue
            result._rows.add(projected)
        return result

    def slice(self, first: int, last: int, drop_all_null: bool = True) -> "Relation":
        """Project onto the contiguous column range ``first..last`` inclusive."""
        return self.project(range(first, last + 1), drop_all_null)

    def where(self, predicate: Callable[[tuple[Cell, ...]], bool]) -> "Relation":
        result = Relation(self.columns)
        result._rows = {row for row in self._rows if predicate(row)}
        return result

    def rename(self, columns: Sequence[str]) -> "Relation":
        if len(columns) != self.arity:
            raise RelationError("rename must preserve arity")
        result = Relation(columns)
        result._rows = set(self._rows)
        return result

    # ------------------------------------------------------------------
    # inspection helpers
    # ------------------------------------------------------------------

    def distinct(self, column: int) -> set[Cell]:
        """Distinct non-NULL values of a column."""
        return {row[column] for row in self._rows if row[column] is not NULL}

    def complete_rows(self) -> "Relation":
        """Rows with no NULL anywhere (complete paths)."""
        return self.where(lambda row: all(cell is not NULL for cell in row))

    def pretty(self, limit: int = 20) -> str:
        """Render the relation as a fixed-width text table (for examples)."""
        header = " | ".join(self.columns)
        separator = "-" * len(header)
        body_rows = sorted(self._rows, key=lambda r: tuple(_sort_key(c) for c in r))
        lines = [header, separator]
        for row in body_rows[:limit]:
            lines.append(" | ".join(str(cell) for cell in row))
        if len(body_rows) > limit:
            lines.append(f"... ({len(body_rows) - limit} more rows)")
        return "\n".join(lines)


def _sort_key(cell: Cell) -> tuple:
    from repro.gom.objects import OID

    if cell is NULL:
        return (0, "")
    if isinstance(cell, OID):
        return (1, cell.value)
    return (2, str(cell))


def fold_join(relations: Sequence[Relation], kind: JoinKind) -> Relation:
    """Left-to-right fold: ``((R0 ∘ R1) ∘ R2) ∘ …`` with join ``kind``."""
    if not relations:
        raise RelationError("cannot fold an empty sequence of relations")
    result = relations[0]
    for relation in relations[1:]:
        result = result.join(relation, kind)
    return result


def fold_join_right(relations: Sequence[Relation], kind: JoinKind) -> Relation:
    """Right-to-left fold: ``R0 ∘ (R1 ∘ (… ∘ R_{n-1}))`` with join ``kind``."""
    if not relations:
        raise RelationError("cannot fold an empty sequence of relations")
    result = relations[-1]
    for relation in reversed(relations[:-1]):
        result = relation.join(result, kind)
    return result
