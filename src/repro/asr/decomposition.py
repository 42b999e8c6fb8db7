"""Decompositions of access support relations (Def. 3.8, Thm. 3.9).

A decomposition of an ``(m+1)``-column relation is a sequence of borders
``(0, i_1, …, i_k, m)``; the partitions are the column ranges
``[0..i_1], [i_1..i_2], …, [i_k..m]`` — adjacent partitions *share* their
border column, which is what makes every decomposition lossless
(Theorem 3.9): re-joining the partitions on the shared columns recovers
the undecomposed extension.

Partitions are materialized by projecting the extension onto their
columns (duplicates eliminated; rows that are entirely NULL carry no path
information and are dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

from repro.asr.extensions import Extension
from repro.asr.relation import JoinKind, Relation, fold_join, fold_join_right
from repro.errors import DecompositionError


@dataclass(frozen=True)
class Decomposition:
    """An ordered tuple of partition borders ``(0, i_1, …, m)``."""

    borders: tuple[int, ...]

    def __post_init__(self) -> None:
        borders = self.borders
        if len(borders) < 2:
            raise DecompositionError("a decomposition needs at least two borders")
        if borders[0] != 0:
            raise DecompositionError("decompositions must start at column 0")
        if any(b >= c for b, c in zip(borders, borders[1:])):
            raise DecompositionError(
                f"borders must be strictly increasing, got {borders}"
            )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, *borders: int) -> "Decomposition":
        return cls(tuple(borders))

    @classmethod
    def none(cls, m: int) -> "Decomposition":
        """The trivial decomposition ``(0, m)`` — no decomposition."""
        return cls((0, m))

    @classmethod
    def binary(cls, m: int) -> "Decomposition":
        """The finest decomposition ``(0, 1, …, m)`` into binary partitions."""
        return cls(tuple(range(m + 1)))

    @classmethod
    def all_for(cls, m: int) -> Iterator["Decomposition"]:
        """Every decomposition of an ``(m+1)``-column relation (2^(m-1) of them)."""
        inner = range(1, m)
        for count in range(0, m):
            for chosen in combinations(inner, count):
                yield cls((0, *chosen, m))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """The last column covered by this decomposition."""
        return self.borders[-1]

    @property
    def partitions(self) -> tuple[tuple[int, int], ...]:
        """The ``(i, j)`` column ranges of the partitions, in order."""
        return tuple(zip(self.borders, self.borders[1:]))

    def validate_for(self, m: int) -> None:
        """Check this decomposition fits an ``(m+1)``-column relation."""
        if self.m != m:
            raise DecompositionError(
                f"decomposition {self.borders} ends at {self.m}, relation "
                f"has last column {m}"
            )

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # Built once: a metric label and a trace note on every read.
        return "(" + ", ".join(map(str, self.borders)) + ")"

    # ------------------------------------------------------------------
    # materialization + losslessness
    # ------------------------------------------------------------------

    def materialize(self, relation: Relation) -> list[Relation]:
        """Project ``relation`` onto each partition's columns."""
        self.validate_for(relation.arity - 1)
        return [relation.slice(i, j) for i, j in self.partitions]

    def recompose(
        self, partitions: Sequence[Relation], extension: Extension
    ) -> Relation:
        """Join partitions back together (the losslessness direction).

        The join kind matches the extension that was decomposed: partial
        paths are NULL-padded at partition borders, so canonical needs the
        natural join and the partial-path extensions need the matching
        outer joins to resurrect rows whose border cell is NULL.
        """
        if len(partitions) != len(self.partitions):
            raise DecompositionError(
                f"expected {len(self.partitions)} partitions, got {len(partitions)}"
            )
        if extension is Extension.RIGHT:
            return fold_join_right(list(partitions), JoinKind.RIGHT_OUTER)
        return fold_join(list(partitions), extension.join_kind)
