"""Auxiliary relations ``E_0 … E_{n-1}`` (Definition 3.3).

For each attribute ``A_j`` of a path expression the auxiliary relation
``E_{j-1}`` materializes the single hop:

* **binary** ``(id(o_{j-1}), id(o_j))`` when ``A_j`` is single-valued —
  for every object ``o_{j-1}`` in the extent of ``t_{j-1}`` whose ``A_j``
  is defined (if ``t_j`` is atomic, ``id(o_j)`` is the value itself,
  footnote 3);
* **ternary** ``(id(o_{j-1}), id(o'_j), id(o_j))`` when ``A_j`` is
  set-valued — one tuple per member, and the special tuple
  ``(id(o_{j-1}), id(o'_j), NULL)`` when the set is empty.

The extensions of Definitions 3.4–3.7 are join chains over these.
"""

from __future__ import annotations

from repro.asr.relation import Relation
from repro.gom.database import ObjectBase
from repro.gom.objects import OID
from repro.gom.paths import PathExpression
from repro.gom.types import NULL, AtomicType


def _set_step_rows(db: ObjectBase, step, oids) -> list[tuple]:
    rows: list[tuple] = []
    for oid in oids:
        collection = db.attr(oid, step.attribute)
        if collection is NULL:
            continue
        assert isinstance(collection, OID)
        members = db.members(collection)
        if not members:
            rows.append((oid, collection, NULL))
        else:
            for member in members:
                rows.append((oid, collection, member))
    return rows


def _single_step_rows(db: ObjectBase, step, oids) -> list[tuple]:
    rows: list[tuple] = []
    for oid in oids:
        value = db.attr(oid, step.attribute)
        if value is NULL:
            continue
        rows.append((oid, value))
    return rows


def auxiliary_relation(db: ObjectBase, path: PathExpression, j: int) -> Relation:
    """Build ``E_{j-1}`` for the step ``A_j`` (``j`` is 1-based, 1..n)."""
    step = path.steps[j - 1]
    schema = db.schema
    if step.is_set_occurrence:
        assert step.collection_type is not None
        columns = [
            f"OID_{step.domain_type}",
            f"OID_{step.collection_type}",
            _range_label(schema, step.range_type),
        ]
        make_rows = _set_step_rows
    else:
        columns = [f"OID_{step.domain_type}", _range_label(schema, step.range_type)]
        make_rows = _single_step_rows
    extent = sorted(db.extent(step.domain_type), key=lambda o: o.value)
    relation = Relation(columns)
    for row in make_rows(db, step, extent):
        relation.add(row)
    return relation


def auxiliary_relations(db: ObjectBase, path: PathExpression) -> list[Relation]:
    """All auxiliary relations ``[E_0, …, E_{n-1}]`` for ``path``."""
    return [auxiliary_relation(db, path, j) for j in range(1, path.n + 1)]


def _range_label(schema, type_name: str) -> str:
    prefix = "VALUE" if isinstance(schema.lookup(type_name), AtomicType) else "OID"
    return f"{prefix}_{type_name}"
