"""Incremental maintenance of access support relations (section 6).

The paper analyzes the cost of keeping ASRs consistent under object-base
updates; this module supplies the *algorithm*.  Every change event is
translated into a :class:`DirtyRegion` — a set of row predicates that
every extension row the event adds or removes satisfies:

* an **anchor** ``(i, cell)`` selects the rows holding ``cell`` at the
  column of type index ``i`` (attribute assignments and deletions);
* a **dead** ``(column, oid)`` selects the rows holding ``oid`` at
  ``column``, one of the columns its type can occupy (deletions);
* an **edge** ``(s, owner, collection, element)`` is one set
  insertion or removal at step ``s``, seen through one owner.  With
  ``c = column_of(s - 1)`` it selects the rows with ``owner`` at ``c``,
  ``collection`` at ``c + 1`` and ``element`` or NULL at ``c + 2``
  (**P**), and the rows starting at ``element`` in column ``c + 2``
  with every column left of it NULL (**L**).

Then, per region,

1. the *old* neighbourhood is read from the partitions, the ASR's only
   stored copy: :meth:`~repro.asr.asr.AccessSupportRelation.rows_at`
   enters the partition holding a predicate's keyed column by a lookup
   (forward, backward, or a column probe) and rejoins each row found
   with the adjacent partitions by border lookups — Thm. 3.9's
   recomposition, restricted to the rows through one cell.  These are
   the lookups Eq. 36's ``search`` prices; they are not charged yet
   (the charged pages are the partitions' tree writes in
   :meth:`~repro.asr.asr.AccessSupportRelation.apply_delta`);
2. the *new* neighbourhood is recomputed from the post-update object
   graph: per anchor every row through its cell (``rows_through``:
   backward-maximal × forward-maximal path segments); per edge §6.1's
   ``I_l × I_r`` (``edge_rows``: the backward paths into ``owner`` ×
   ``collection`` × the forward paths out of ``element``), plus the
   row ending in NULL after ``collection`` when it is now empty or a
   list holding NULL, and the left stubs of ``element`` when it has no
   step-``s`` predecessor left.  Both are
   filtered by the extension's rules;
3. ``added = new − old`` and ``removed = old − new``.

The predicates never read graph state, so the old and the new
neighbourhood are enumerated over the same rows, and a row changed by
any event of a batch satisfies a predicate of the merged region: the
procedure is exact for every extension and under coalescing, including
the paper's tricky cases — empty-set stub rows appearing and
disappearing, partial paths becoming complete, shared sets, lists with
duplicate elements, and even paths in which the same
``(type, attribute)`` occurs at several positions (which the paper's
section 6 explicitly assumes away).  Exactness is property-tested
against full rebuilds.

The *cost* of maintenance is a separate concern, modelled analytically in
:mod:`repro.costmodel.updatecost`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asr.extensions import Extension
from repro.gom.database import ObjectBase
from repro.gom.events import (
    AttributeSet,
    Event,
    ObjectCreated,
    ObjectDeleted,
    SetInserted,
    SetRemoved,
)
from repro.gom.objects import OID, Cell
from repro.gom.paths import PathExpression
from repro.gom.traversal import backward_rows, forward_rows, has_predecessor
from repro.gom.types import NULL


@dataclass(frozen=True)
class DirtyRegion:
    """What an event touched, relative to one path expression.

    ``anchors`` are ``(type index, cell)`` pairs, ``dead`` ``(column,
    OID)`` pairs of an object that ceased to exist and a column its type
    can occupy, and ``edges`` ``(step, owner, collection, element)`` set
    insertions or removals: every extension row that changed passes
    through an anchor (at the column of that type index), holds a dead
    OID at one of its columns, or satisfies an edge's P or L predicate
    (module docstring).
    """

    anchors: frozenset[tuple[int, Cell]]
    dead: frozenset[tuple[int, OID]] = frozenset()
    edges: frozenset[tuple[int, OID, OID, Cell]] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.anchors) or bool(self.dead) or bool(self.edges)


EMPTY_REGION = DirtyRegion(frozenset())


def merge_regions(*regions: DirtyRegion) -> DirtyRegion:
    """Coalesce dirty regions: the union of anchors, dead OIDs and edges.

    This is what makes batched maintenance cheap *and* exact: every row
    changed by any of the underlying events satisfies at least one
    predicate of the merged region, so one
    :func:`neighbourhood_delta` against the final object graph replaces
    one delta per event — overlapping neighbourhoods are recomputed and
    their tree pages touched once instead of once per event.
    """
    anchors: frozenset[tuple[int, Cell]] = frozenset()
    dead: frozenset[tuple[int, OID]] = frozenset()
    edges: frozenset[tuple[int, OID, OID, Cell]] = frozenset()
    for region in regions:
        anchors |= region.anchors
        dead |= region.dead
        edges |= region.edges
    if not anchors and not dead and not edges:
        return EMPTY_REGION
    return DirtyRegion(anchors, dead, edges)


def analyze_event(db: ObjectBase, path: PathExpression, event: Event) -> DirtyRegion:
    """The dirty region of ``event`` w.r.t. ``path`` (empty if unaffected)."""
    if isinstance(event, ObjectCreated):
        return EMPTY_REGION
    if isinstance(event, AttributeSet):
        return _analyze_attribute_set(db, path, event)
    if isinstance(event, (SetInserted, SetRemoved)):
        return _analyze_membership(db, path, event)
    if isinstance(event, ObjectDeleted):
        return _analyze_deletion(db, path, event)
    return EMPTY_REGION


def _matching_steps_for_attribute(
    db: ObjectBase, path: PathExpression, type_name: str, attribute: str
) -> list[int]:
    """1-based step indices ``s`` whose ``A_s`` the event's attribute is."""
    return [
        s
        for s, step in enumerate(path.steps, start=1)
        if step.attribute == attribute
        and db.schema.is_subtype(type_name, step.domain_type)
    ]


def _analyze_attribute_set(
    db: ObjectBase, path: PathExpression, event: AttributeSet
) -> DirtyRegion:
    anchors: set[tuple[int, Cell]] = set()
    for s in _matching_steps_for_attribute(db, path, event.type_name, event.attribute):
        step = path.steps[s - 1]
        anchors.add((s - 1, event.oid))
        if step.is_set_occurrence:
            # old/new are collection OIDs; the path-level neighbours are
            # their members (the collections themselves sit on the extra
            # column between owner and member and are covered by the
            # owner anchor).
            for collection in (event.old_value, event.new_value):
                if isinstance(collection, OID) and collection in db:
                    for member in db.members(collection):
                        anchors.add((s, member))
        else:
            for cell in (event.old_value, event.new_value):
                if cell is not NULL:
                    anchors.add((s, cell))
    return DirtyRegion(frozenset(anchors))


def _analyze_membership(
    db: ObjectBase, path: PathExpression, event: SetInserted | SetRemoved
) -> DirtyRegion:
    anchors: set[tuple[int, Cell]] = set()
    edges: set[tuple[int, OID, OID, Cell]] = set()
    element = event.element
    for s, step in enumerate(path.steps, start=1):
        if step.collection_type != event.set_type:
            continue
        # A collection no owner holds lies on no path: no edge.
        for owner in _owners_via(db, step.domain_type, step.attribute, event.set_oid):
            if element is NULL:
                # A list may hold NULL, which is no path node: the rows
                # through the owner cover it.
                anchors.add((s - 1, owner))
            else:
                edges.add((s, owner, event.set_oid, element))
    if not anchors and not edges:
        return EMPTY_REGION
    return DirtyRegion(frozenset(anchors), edges=frozenset(edges))


def _owners_via(
    db: ObjectBase, domain_type: str, attribute: str, collection: OID
) -> list[OID]:
    return [
        oid
        for oid in db.referrers(collection)
        if db.schema.is_subtype(db.type_of(oid), domain_type)
        and attribute in db.schema.attributes_of(db.type_of(oid))
        and db.attr(oid, attribute) == collection
    ]


def _analyze_deletion(
    db: ObjectBase, path: PathExpression, event: ObjectDeleted
) -> DirtyRegion:
    anchors: set[tuple[int, Cell]] = set()
    # The columns the deleted object can occupy: those of its type and,
    # for a collection, the extra column its set occurrences insert.
    dead = {
        (c, event.oid)
        for c, column in enumerate(path.columns)
        if (
            event.type_name == column.type_name
            if column.is_collection
            else db.schema.is_subtype(event.type_name, column.type_name)
        )
    }
    for s, step in enumerate(path.steps, start=1):
        if step.collection_type is not None and event.type_name == step.collection_type:
            if isinstance(event.old_value, (set, frozenset, list, tuple)):
                for member in event.old_value:
                    if member is not NULL:
                        anchors.add((s, member))
        # Targets of the deleted object's outgoing edges may become
        # left-maximal stubs.
        if isinstance(event.old_value, dict) and db.schema.is_subtype(
            event.type_name, step.domain_type
        ):
            target = event.old_value.get(step.attribute, NULL)
            if target is NULL:
                continue
            if step.is_set_occurrence:
                if isinstance(target, OID) and target in db:
                    for member in db.members(target):
                        anchors.add((s, member))
            else:
                anchors.add((s, target))
    if not dead and not anchors:
        return EMPTY_REGION
    return DirtyRegion(frozenset(anchors), frozenset(dead))


# ----------------------------------------------------------------------
# neighbourhood recomputation
# ----------------------------------------------------------------------


def rows_through(
    db: ObjectBase,
    path: PathExpression,
    i: int,
    cell: Cell,
    extension: Extension,
) -> set[tuple[Cell, ...]]:
    """All extension rows passing through ``cell`` at type index ``i``.

    Combines every backward-maximal partial path ending at ``cell`` with
    every forward-maximal partial path starting there, then filters by the
    extension's rules (canonical: complete; left: originates in ``t_0``;
    right: reaches ``t_n``).
    """
    if cell is NULL:
        return set()
    if isinstance(cell, OID) and cell not in db:
        return set()
    backs = backward_rows(db, path, i, cell)
    fores = forward_rows(db, path, i, cell)
    return _extension_rows(
        {back + fore[1:] for back in backs for fore in fores}, extension
    )


def edge_rows(
    db: ObjectBase,
    path: PathExpression,
    edge: tuple[int, OID, OID, Cell],
    extension: Extension,
) -> set[tuple[Cell, ...]]:
    """All extension rows satisfying ``edge``'s P or L predicate.

    §6.1's ``I_l × I_r``: while ``owner`` still holds ``collection`` and
    ``element`` is a member, the backward paths into ``owner`` ×
    ``collection`` × the forward paths out of ``element``; while
    ``collection`` is empty or a list holding NULL, the rows ending in
    NULL after it; and while ``element`` has no step-``s`` predecessor,
    the rows starting at it.
    """
    s, owner, collection, element = edge
    step = path.steps[s - 1]
    c = path.column_of(s - 1)
    alive = not isinstance(element, OID) or element in db
    fores = forward_rows(db, path, s, element) if alive else []
    rows: set[tuple[Cell, ...]] = set()
    if (
        owner in db
        and collection in db
        and db.attr(owner, step.attribute) == collection
    ):
        members = db.members(collection)
        # The empty-set stub and a list's NULL member both end the row
        # at ``c + 2`` with NULL.
        tails = [(NULL,) * (path.m - c - 1)] if not members or NULL in members else []
        if element in members:
            tails += fores
        if tails:
            for back in backward_rows(db, path, s - 1, owner):
                head = back + (collection,)
                rows.update(head + tail for tail in tails)
    if _left_open(extension):
        # A row starting at ``element`` embeds an edge only if its forward
        # part does; probe for a predecessor only then.
        stubs = [fore for fore in fores if len(fore) > 1 and fore[1] is not NULL]
        if stubs and not has_predecessor(db, path, s, element):
            pad = (NULL,) * (c + 2)
            rows.update(pad + fore for fore in stubs)
    return _extension_rows(rows, extension)


def _extension_rows(
    rows: set[tuple[Cell, ...]], extension: Extension
) -> set[tuple[Cell, ...]]:
    # Every extension row embeds at least one auxiliary-relation tuple
    # (an edge, or an owner/empty-set pair), i.e. at least two non-NULL
    # cells; an isolated cell — e.g. an atomic value no object carries
    # any more — is not a path segment.
    return {
        row
        for row in rows
        if len(row) - row.count(NULL) >= 2
        and _admissible(row, extension)
    }


def _left_open(extension: Extension) -> bool:
    """Whether ``extension`` keeps rows that start with NULL (left stubs)."""
    return extension is Extension.FULL or extension is Extension.RIGHT


def _admissible(row: tuple[Cell, ...], extension: Extension) -> bool:
    if row[0] is NULL and not _left_open(extension):
        return False
    if extension is Extension.CANONICAL:
        return all(cell is not NULL for cell in row)
    if extension is Extension.RIGHT:
        return row[-1] is not NULL
    return True


def neighbourhood_delta(
    db: ObjectBase, asr, region: DirtyRegion
) -> tuple[set[tuple[Cell, ...]], set[tuple[Cell, ...]]]:
    """The ``(added, removed)`` extension rows ``region`` induces on ``asr``.

    ``asr`` is the stored structure (an
    :class:`~repro.asr.asr.AccessSupportRelation`, or anything with its
    ``path``, ``extension`` and ``rows_at``).  The old neighbourhood is
    read through ``asr.rows_at(column, cell)``, the partitions' own
    lookups: per anchor the rows holding its cell at the anchor's
    column; per dead ``(column, oid)`` the rows holding the OID there;
    per edge the rows holding its owner at ``c`` that satisfy P and the
    rows holding its element at ``c + 2`` that satisfy L.  The cost is
    that of the lookups through the keyed cells, independent of
    ``#E_X``; the extension is never rebuilt.  A NULL anchor selects
    nothing — NULL is no path node, and :func:`rows_through` recomputes
    nothing for it either.
    """
    if not region:
        return set(), set()
    path, extension, rows_at = asr.path, asr.extension, asr.rows_at
    old_rows: set[tuple[Cell, ...]] = set()
    new_rows: set[tuple[Cell, ...]] = set()
    for i, cell in region.anchors:
        old_rows.update(rows_at(path.column_of(i), cell))
        new_rows |= rows_through(db, path, i, cell, extension)
    stubs = _left_open(extension)
    for edge in region.edges:
        s, owner, collection, element = edge
        c = path.column_of(s - 1)
        e = c + 2
        old_rows.update(rows_at(c, owner, {c + 1: (collection,), e: (NULL, element)}))
        if stubs:
            old_rows.update(rows_at(e, element, dict.fromkeys(range(e), (NULL,))))
        new_rows |= edge_rows(db, path, edge, extension)
    for column, oid in region.dead:
        old_rows.update(rows_at(column, oid))
    # A recomputed row may still contain a dead OID at a *different*
    # column only if the object base itself were inconsistent; guard
    # anyway so deletions can never resurrect rows.
    if region.dead:
        dead = {oid for _column, oid in region.dead}
        new_rows = {
            row
            for row in new_rows
            if not any(cell in dead for cell in row if isinstance(cell, OID))
        }
    return new_rows - old_rows, old_rows - new_rows
