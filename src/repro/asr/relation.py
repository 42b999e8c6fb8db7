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
    Rows can be added, but all algebra operators return fresh relations.
    A relation holds its rows and nothing else: the stored form of an
    access support relation is its partitions
    (:class:`~repro.asr.asr.AccessSupportRelation`), and a ``Relation``
    is the algebra that builds an extension
    (:func:`~repro.asr.extensions.build_extension`) and rejoins one
    (:meth:`~repro.asr.decomposition.Decomposition.recompose`) — the
    oracle the tests compare the stored form with.
    """

    __slots__ = ("columns", "_rows")

    def __init__(
        self, columns: Sequence[str], rows: Iterable[tuple[Cell, ...]] = ()
    ) -> None:
        self.columns: tuple[str, ...] = tuple(columns)
        self._rows: set[tuple[Cell, ...]] = set()
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
        self._rows.add(tuple(row))

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

    def project(self, columns: Sequence[int]) -> "Relation":
        """Project onto column positions, eliminating duplicates.

        Rows whose projected cells are all NULL are dropped — such rows
        carry no path information and the paper's partition cardinality
        formulas do not count them.
        """
        for column in columns:
            if not 0 <= column < self.arity:
                raise RelationError(f"column {column} out of range 0..{self.arity - 1}")
        labels = [self.columns[c] for c in columns]
        result = Relation(labels)
        for row in self._rows:
            projected = tuple(row[c] for c in columns)
            if all(cell is NULL for cell in projected):
                continue
            result._rows.add(projected)
        return result

    def slice(self, first: int, last: int) -> "Relation":
        """Project onto the contiguous column range ``first..last`` inclusive."""
        return self.project(range(first, last + 1))

    def where(self, predicate: Callable[[tuple[Cell, ...]], bool]) -> "Relation":
        result = Relation(self.columns)
        result._rows = {row for row in self._rows if predicate(row)}
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
