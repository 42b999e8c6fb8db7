"""Object-graph traversal along a path expression.

These helpers enumerate (partial) *path instantiations*: sequences of
cells — OIDs, collection OIDs at set occurrences, atomic terminal values —
aligned with the columns of the access support relation of a path
(Definition 3.2).  They are the ground truth the ASR machinery is
validated against, the engine behind *unsupported* query evaluation
(section 5.6), and the search step of incremental index maintenance
(section 6.1).

Forward traversal follows the uni-directional references stored in the
objects; backward traversal uses the object base's reverse-reference
index (an implementation convenience — the *cost model* continues to
charge backward searches as exhaustive scans, exactly as the paper does,
because the paper's object representation has no such index).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import PathError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID, Cell
from repro.gom.paths import PathExpression
from repro.gom.types import NULL


def forward_rows(
    db: ObjectBase, path: PathExpression, i: int, start: Cell
) -> list[tuple[Cell, ...]]:
    """All maximal partial paths from ``start`` (of type ``t_i``) forward.

    Returns tuples covering the ASR columns ``column_of(i) .. m``; where a
    path ends early (undefined attribute, or the empty-set rule of
    Definition 3.3) the remaining cells are NULL.  For ``start`` values of
    atomic type (``i == n`` with an atomic terminal) the single row
    ``(start,)`` is returned.
    """
    if not 0 <= i <= path.n:
        raise PathError(f"start index {i} out of range 0..{path.n}")
    if start is NULL:
        return []
    return list(_extend_forward(db, path, i, start))


def _extend_forward(
    db: ObjectBase, path: PathExpression, i: int, cell: Cell
) -> Iterator[tuple[Cell, ...]]:
    if i == path.n:
        yield (cell,)
        return
    step = path.steps[i]
    pad = _null_pad(path, i)
    if not isinstance(cell, OID):
        # Atomic cell mid-path cannot happen for valid paths; defensive.
        yield (cell,) + pad
        return
    value = db.attr(cell, step.attribute)
    if value is NULL:
        yield (cell,) + pad
        return
    if step.is_set_occurrence:
        assert isinstance(value, OID)
        members = db.members(value)
        if not members:
            # Empty-set rule (Def. 3.3): (id(o), id(set), NULL) and NULL
            # padding for every column after the element column.
            yield (cell, value, NULL) + _null_pad(path, i + 1)
            return
        for member in sorted(members, key=_cell_sort_key):
            for tail in _extend_forward(db, path, i + 1, member):
                yield (cell, value) + tail
    else:
        for tail in _extend_forward(db, path, i + 1, value):
            yield (cell,) + tail


def _null_pad(path: PathExpression, i: int) -> tuple[Cell, ...]:
    """NULL cells for all ASR columns strictly right of ``column_of(i)``."""
    return (NULL,) * (path.m - path.column_of(i))


def _null_pad_left(path: PathExpression, j: int) -> tuple[Cell, ...]:
    """NULL cells for all ASR columns strictly left of ``column_of(j)``."""
    return (NULL,) * path.column_of(j)


def _cell_sort_key(cell: Cell):
    # OIDs before any other cell, so a list holding NULL and objects sorts.
    return (0, cell.value) if isinstance(cell, OID) else (1, repr(cell))


def backward_rows(
    db: ObjectBase, path: PathExpression, j: int, end: Cell
) -> list[tuple[Cell, ...]]:
    """All maximal partial paths *ending* at ``end`` (of type ``t_j``).

    Returns tuples covering the ASR columns ``0 .. column_of(j)``; where a
    path cannot be extended further left, the leading cells are NULL.
    """
    if not 0 <= j <= path.n:
        raise PathError(f"end index {j} out of range 0..{path.n}")
    if end is NULL:
        return []
    return list(_extend_backward(db, path, j, end))


def _extend_backward(
    db: ObjectBase, path: PathExpression, j: int, cell: Cell
) -> Iterator[tuple[Cell, ...]]:
    if j == 0:
        yield (cell,)
        return
    step = path.steps[j - 1]
    predecessors = _predecessor_pairs(db, path, j, cell)
    if not predecessors:
        yield _null_pad_left(path, j) + (cell,)
        return
    for owner, via in predecessors:
        middle = (via, cell) if via is not None else (cell,)
        for head in _extend_backward(db, path, j - 1, owner):
            yield head + middle


def _predecessor_pairs(
    db: ObjectBase, path: PathExpression, j: int, cell: Cell
) -> list[tuple[OID, OID | None]]:
    """Objects of type ``t_{j-1}`` reaching ``cell`` via ``A_j``.

    Returns ``(owner, collection_oid)`` pairs; ``collection_oid`` is None
    for single-valued steps.
    """
    return sorted(
        _iter_predecessor_pairs(db, path, j, cell),
        key=lambda p: (_cell_sort_key(p[0]), _cell_sort_key(p[1] or p[0])),
    )


def has_predecessor(db: ObjectBase, path: PathExpression, j: int, cell: Cell) -> bool:
    """Whether some object of type ``t_{j-1}`` reaches ``cell`` via ``A_j``.

    The early-exit form of :func:`_predecessor_pairs`: ``cell`` starts
    left-maximal paths at column ``column_of(j)`` exactly when this is
    False.
    """
    return next(_iter_predecessor_pairs(db, path, j, cell), None) is not None


def _iter_predecessor_pairs(
    db: ObjectBase, path: PathExpression, j: int, cell: Cell
) -> Iterator[tuple[OID, OID | None]]:
    step = path.steps[j - 1]
    if step.is_set_occurrence:
        if not isinstance(cell, OID):
            # Atomic set elements: scan collections of the right type.
            collections = (
                coll
                for coll in db.extent(step.collection_type or "", False)
                if cell in db.members(coll)
            )
        else:
            collections = (
                coll
                for coll in db.referrers(cell)
                if db.type_of(coll) == step.collection_type
            )
        for coll in collections:
            for owner in _attribute_holders(db, step.domain_type, step.attribute, coll):
                yield owner, coll
    else:
        for owner in _attribute_holders(db, step.domain_type, step.attribute, cell):
            yield owner, None


def _attribute_holders(
    db: ObjectBase, domain_type: str, attribute: str, target: Cell
) -> Iterator[OID]:
    """Objects in the extent of ``domain_type`` with ``attribute == target``."""
    if isinstance(target, OID):
        candidates = (
            source
            for source in db.referrers(target)
            if db.schema.is_subtype(db.type_of(source), domain_type)
        )
    else:
        candidates = db.extent(domain_type)
    return (
        oid
        for oid in candidates
        if attribute in db.schema.attributes_of(db.type_of(oid))
        and db.attr(oid, attribute) == target
    )


def reachable_terminals(
    db: ObjectBase, path: PathExpression, start: Cell, i: int = 0, j: int | None = None
) -> set[Cell]:
    """The ``t_j`` cells reachable from ``start`` in ``t_i`` — a forward query.

    This is the reference semantics of ``Q_{i,j}(fw)`` (section 5.1.2):
    ``select o.A_{i+1}.….A_j from o`` — every object (or atomic value) of
    type ``t_j`` lying on a complete sub-path from ``start``.
    """
    j = path.n if j is None else j
    if not 0 <= i < j <= path.n:
        raise PathError(f"invalid query bounds ({i}, {j})")
    target_column = path.column_of(j) - path.column_of(i)
    result: set[Cell] = set()
    for row in forward_rows(db, path, i, start):
        cell = row[target_column]
        if cell is not NULL:
            result.add(cell)
    return result


def origins_reaching(
    db: ObjectBase,
    path: PathExpression,
    end: Cell,
    i: int = 0,
    j: int | None = None,
    candidates: Sequence[Cell] | None = None,
) -> set[OID]:
    """The ``t_i`` objects with a path to ``end`` in ``t_j`` — a backward query.

    Reference semantics of ``Q_{i,j}(bw)`` (section 5.1.1): ``select o from
    o in C where end in o.A_{i+1}.….A_j``.  When ``candidates`` is given,
    the result is intersected with it (the collection ``C``).
    """
    j = path.n if j is None else j
    if not 0 <= i < j <= path.n:
        raise PathError(f"invalid query bounds ({i}, {j})")
    origin_column = 0 if i == 0 else path.column_of(i)
    result: set[OID] = set()
    for row in backward_rows(db, path, j, end):
        cell = row[origin_column]
        if cell is not NULL and isinstance(cell, OID):
            result.add(cell)
    if candidates is not None:
        result &= set(candidates)  # type: ignore[arg-type]
    return result
