"""The four extensions (Defs. 3.4–3.7): paper tables + random-world oracle.

The join-chain builders are cross-validated against an independent
oracle: the union of maximal path segments found by object-graph
traversal (backward-maximal × forward-maximal through every object).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import Extension, build_extension
from repro.asr.maintenance import rows_through
from repro.gom import NULL, ObjectBase, PathExpression, Schema


class TestCompanyExtensions:
    """The worked example of section 3 over the Figure 2 extension."""

    def test_canonical(self, company_world):
        db, path, o = company_world
        relation = build_extension(db, path, Extension.CANONICAL)
        assert relation.rows == {
            (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["sec"], o["parts_sec"], o["door"], "Door"),
        }

    def test_full(self, company_world):
        db, path, o = company_world
        relation = build_extension(db, path, Extension.FULL)
        assert relation.rows == {
            (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["trak"], NULL, NULL, NULL),
            (NULL, NULL, o["sausage"], o["parts_sausage"], o["pepper"], "Pepper"),
        }

    def test_left_complete(self, company_world):
        db, path, o = company_world
        relation = build_extension(db, path, Extension.LEFT)
        assert relation.rows == {
            (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["trak"], NULL, NULL, NULL),
        }

    def test_right_complete(self, company_world):
        db, path, o = company_world
        relation = build_extension(db, path, Extension.RIGHT)
        assert relation.rows == {
            (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (o["truck"], o["prods_truck"], o["sec"], o["parts_sec"], o["door"], "Door"),
            (NULL, NULL, o["sausage"], o["parts_sausage"], o["pepper"], "Pepper"),
        }

    def test_containment_lattice(self, company_world):
        db, path, _o = company_world
        can = build_extension(db, path, Extension.CANONICAL).rows
        left = build_extension(db, path, Extension.LEFT).rows
        right = build_extension(db, path, Extension.RIGHT).rows
        full = build_extension(db, path, Extension.FULL).rows
        assert can <= left <= full
        assert can <= right <= full
        assert can == {r for r in full if all(c is not NULL for c in r)}


class TestApplicability:
    """Eq. 35: which queries each extension supports."""

    @pytest.mark.parametrize(
        "extension,i,j,expected",
        [
            (Extension.CANONICAL, 0, 4, True),
            (Extension.CANONICAL, 0, 3, False),
            (Extension.CANONICAL, 1, 4, False),
            (Extension.LEFT, 0, 2, True),
            (Extension.LEFT, 1, 4, False),
            (Extension.RIGHT, 2, 4, True),
            (Extension.RIGHT, 0, 3, False),
            (Extension.FULL, 1, 3, True),
            (Extension.FULL, 0, 4, True),
        ],
    )
    def test_supports_query(self, extension, i, j, expected):
        assert extension.supports_query(i, j, 4) is expected


# ----------------------------------------------------------------------
# random-world oracle cross-validation
# ----------------------------------------------------------------------


def build_random_world(edge01, edge12, empty_sets, draw_single):
    """A 3-type chain world T0 -{set}-> T1 -(single)-> T2 from drawn data."""
    schema = Schema()
    schema.define_tuple("T2", {"Payload": "INTEGER"})
    if draw_single:
        schema.define_tuple("T1", {"A": "T2"})
    else:
        schema.define_tuple("T1", {"A": "T2"})
    schema.define_set("SET_T1", "T1")
    schema.define_tuple("T0", {"A": "SET_T1"})
    schema.validate()
    db = ObjectBase(schema)
    t2 = [db.new("T2", Payload=i) for i in range(4)]
    t1 = [db.new("T1") for _ in range(4)]
    t0 = [db.new("T0") for _ in range(4)]
    for source, target in edge12:
        db.set_attr(t1[source], "A", t2[target])
    collections = {}
    for source, target in edge01:
        if source not in collections:
            collections[source] = db.new_set("SET_T1")
            db.set_attr(t0[source], "A", collections[source])
        db.set_insert(collections[source], t1[target])
    for source in empty_sets:
        if source not in collections:
            collections[source] = db.new_set("SET_T1")
            db.set_attr(t0[source], "A", collections[source])
    path = PathExpression.parse(schema, "T0.A.A")
    return db, path


def oracle_extension(db, path, extension):
    rows = set()
    for i, type_name in enumerate(path.types):
        try:
            extent = db.extent(type_name, include_subtypes=False)
        except Exception:
            continue
        for oid in extent:
            rows |= rows_through(db, path, i, oid, extension)
    return rows


indices = st.integers(0, 3)
edges = st.frozensets(st.tuples(indices, indices), max_size=8)


@settings(max_examples=120, deadline=None)
@given(edges, edges, st.frozensets(indices, max_size=2), st.booleans())
def test_extensions_match_traversal_oracle(edge01, edge12, empty_sets, draw_single):
    db, path = build_random_world(edge01, edge12, empty_sets, draw_single)
    for extension in Extension:
        joined = build_extension(db, path, extension).rows
        oracle = oracle_extension(db, path, extension)
        assert joined == oracle, extension


@settings(max_examples=60, deadline=None)
@given(edges, edges, st.frozensets(indices, max_size=2))
def test_containment_lattice_random(edge01, edge12, empty_sets):
    db, path = build_random_world(edge01, edge12, empty_sets, False)
    can = build_extension(db, path, Extension.CANONICAL).rows
    left = build_extension(db, path, Extension.LEFT).rows
    right = build_extension(db, path, Extension.RIGHT).rows
    full = build_extension(db, path, Extension.FULL).rows
    assert can <= left <= full
    assert can <= right <= full
    assert left | right <= full
