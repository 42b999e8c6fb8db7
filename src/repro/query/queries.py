"""Query descriptors: the abstract ``Q_{i,j}`` shapes of section 5.1."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.gom.objects import Cell
from repro.gom.paths import PathExpression


@dataclass(frozen=True)
class Query:
    """Common part of forward/backward path queries.

    ``i`` and ``j`` are type indices into the path (``0 ≤ i < j ≤ n``):
    the query ranges over the sub-chain ``t_i.A_{i+1}.….A_j``.
    """

    path: PathExpression
    i: int
    j: int

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.j <= self.path.n:
            raise QueryError(
                f"invalid query bounds ({self.i}, {self.j}) for a path of "
                f"length {self.path.n}"
            )


@dataclass(frozen=True)
class ForwardQuery(Query):
    """``Q_{i,j}(fw)``: the ``t_j`` cells reachable from ``start`` ∈ ``t_i``.

    The SQL shape (section 5.1.2)::

        select o.A_{i+1}.….A_j  from o in C  where o = start
    """

    start: Cell = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.start is None:
            raise QueryError("a forward query needs a start cell")

    @property
    def kind(self) -> str:
        return "fw"

    def __str__(self) -> str:
        return f"Q{self.i},{self.j}(fw) from {self.start} over {self.path}"


@dataclass(frozen=True)
class BackwardQuery(Query):
    """``Q_{i,j}(bw)``: the ``t_i`` objects whose path reaches ``target``.

    The SQL shape (section 5.1.1)::

        select o  from o in C  where target in o.A_{i+1}.….A_j

    ``target`` may be an OID of type ``t_j`` or — when the path terminates
    in an atomic type and ``j = n`` — an atomic value (the paper's Query 1
    compares ``….Location`` with ``"Utopia"``).
    """

    target: Cell = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.target is None:
            raise QueryError("a backward query needs a target cell")

    @property
    def kind(self) -> str:
        return "bw"

    def __str__(self) -> str:
        return f"Q{self.i},{self.j}(bw) to {self.target} over {self.path}"


@dataclass(frozen=True)
class ValueRangeQuery(Query):
    """Range form of the backward query: origins reaching a value in [lo, hi).

    Only meaningful when the path terminates in an atomic type and the
    query's right end is ``j = n`` — the backward-clustered B+ tree of the
    final partition is keyed on the values, so this is an index range
    scan (an ability the paper's storage choice buys for free).
    """

    lo: Cell = None  # type: ignore[assignment]
    hi: Cell = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lo is None or self.hi is None:
            raise QueryError("a range query needs both bounds")
        if self.j != self.path.n:
            raise QueryError("range queries must end at the path terminal (j = n)")
        if not self.path.terminal_is_atomic:
            raise QueryError("range queries require an atomic path terminal")

    @property
    def kind(self) -> str:
        return "bw"

    def __str__(self) -> str:
        return (
            f"Q{self.i},{self.j}(bw range [{self.lo!r}, {self.hi!r})) "
            f"over {self.path}"
        )
