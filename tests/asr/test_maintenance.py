"""Incremental maintenance (section 6): exactness against full rebuilds.

The central property: after ANY sequence of object-base mutations, every
managed ASR — all four extensions, several decompositions — equals what
a from-scratch rebuild produces.  Checked on directed unit cases for
each event type and on hypothesis-driven random update streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import AccessSupportRelation, ASRManager, Decomposition, Extension
from repro.asr.extensions import build_extension
from repro.asr.maintenance import (
    DirtyRegion,
    analyze_event,
    neighbourhood_delta,
    rows_through,
)
from repro.asr.asr import StoredPartition
from repro.asr.relation import Relation
from repro.gom import NULL, OID, ObjectBase, PathExpression, Schema
from repro.gom.events import AttributeSet, ObjectCreated, ObjectDeleted
from repro.storage.btree import BPlusTree


def assert_rows_at_matches_scan(asr):
    """``rows_at(column, cell)`` == the brute-force ``{row : row[column] == cell}``
    over the recomposed extension, for every column and cell it holds."""
    extension = asr.recompose()
    for column in range(asr.path.m + 1):
        for cell in {row[column] for row in extension} - {NULL}:
            hits = asr.rows_at(column, cell)
            assert len(hits) == len(set(hits)), f"{cell!r} lists a row twice"
            assert set(hits) == {row for row in extension if row[column] == cell}
        assert asr.rows_at(column, NULL) == []


def scan_delta(db, path, extension, current_rows, region):
    """The reference ``neighbourhood_delta``: the region's row predicates
    applied by a pass over the whole relation (the old neighbourhood) and
    over a from-scratch rebuild (the new one)."""
    if not region:
        return set(), set()
    anchor_columns = [(path.column_of(i), cell) for i, cell in region.anchors]
    edge_columns = [
        (path.column_of(s - 1), owner, collection, element)
        for s, owner, collection, element in region.edges
    ]
    dead = {oid for _column, oid in region.dead}

    def satisfies_edge(row, c, owner, collection, element):
        e = c + 2
        p = (
            row[c] == owner
            and row[c + 1] == collection
            and (row[e] is NULL or row[e] == element)
        )
        left = row[e] == element and all(cell is NULL for cell in row[:e])
        return p or left

    def touches(row):
        if dead and any(cell in dead for cell in row if isinstance(cell, OID)):
            return True
        if any(row[column] == cell for column, cell in anchor_columns):
            return True
        return any(satisfies_edge(row, *edge) for edge in edge_columns)

    old_rows = {row for row in current_rows if touches(row)}
    new_rows = {row for row in build_extension(db, path, extension) if touches(row)}
    return new_rows - old_rows, old_rows - new_rows


class Shadow:
    """An unmanaged ASR kept current by hand: on every event the keyed
    delta must equal the scanned one and the full-rebuild difference,
    and every ``rows_at`` the brute force."""

    def __init__(self, db, path, extension, decomposition=None):
        self.db, self.path = db, path
        self.asr = AccessSupportRelation.build(db, path, extension, decomposition)
        self.events = []
        db.subscribe(self)

    def __call__(self, event):
        asr = self.asr
        before = asr.recompose()
        region = analyze_event(self.db, self.path, event)
        delta = neighbourhood_delta(self.db, asr, region)
        assert delta == scan_delta(self.db, self.path, asr.extension, before, region)
        after = build_extension(self.db, self.path, asr.extension).rows
        assert delta == (after - before.rows, before.rows - after)
        asr.apply_delta(*delta)
        assert_rows_at_matches_scan(asr)
        self.events.append((event, region, delta))


@pytest.fixture()
def managed(company_world):
    db, path, objects = company_world
    manager = ASRManager(db)
    for extension in Extension:
        for dec in (
            Decomposition.binary(path.m),
            Decomposition.none(path.m),
            Decomposition.of(0, 2, 5),
        ):
            manager.create(path, extension, dec)
    return db, path, objects, manager


class TestEventCases:
    def test_attribute_set_single_valued(self, managed):
        db, _path, o, manager = managed
        db.set_attr(o["pepper"], "Name", "Salt")
        manager.check_consistency()

    def test_attribute_set_to_null(self, managed):
        db, _path, o, manager = managed
        db.set_attr(o["sec"], "Composition", NULL)
        manager.check_consistency()

    def test_attribute_set_collection_swap(self, managed):
        db, _path, o, manager = managed
        db.set_attr(o["trak"], "Composition", o["parts_sausage"])
        manager.check_consistency()
        db.set_attr(o["trak"], "Composition", o["parts_sec"])
        manager.check_consistency()

    def test_set_insert_into_shared_set(self, managed):
        db, _path, o, manager = managed
        db.set_insert(o["parts_sec"], o["pepper"])
        manager.check_consistency()

    def test_set_insert_first_element(self, managed):
        db, _path, o, manager = managed
        empty = db.new_set("BasePartSET")
        db.set_attr(o["trak"], "Composition", empty)
        manager.check_consistency()  # empty-set stub rows appear
        db.set_insert(empty, o["door"])
        manager.check_consistency()  # stub replaced by real paths

    def test_set_remove_last_element(self, managed):
        db, _path, o, manager = managed
        db.set_remove(o["parts_sec"], o["door"])
        manager.check_consistency()  # stub row reappears

    def test_object_creation_is_noop(self, managed):
        db, _path, _o, manager = managed
        db.new("Division", Name="Fresh")
        manager.check_consistency()

    def test_delete_mid_path_object(self, managed):
        db, _path, o, manager = managed
        db.delete(o["sec"])
        manager.check_consistency()

    def test_delete_terminal_object(self, managed):
        db, _path, o, manager = managed
        db.delete(o["door"])
        manager.check_consistency()

    def test_delete_anchor_object(self, managed):
        db, _path, o, manager = managed
        db.delete(o["truck"])
        manager.check_consistency()

    def test_delete_collection_object(self, managed):
        db, _path, o, manager = managed
        db.delete(o["prods_truck"])
        manager.check_consistency()

    def test_shared_set_across_owners(self, managed):
        db, _path, o, manager = managed
        # Set sharing: two products share one BasePartSET.
        db.set_attr(o["trak"], "Composition", o["parts_sec"])
        manager.check_consistency()
        db.set_insert(o["parts_sec"], o["pepper"])
        manager.check_consistency()
        db.set_remove(o["parts_sec"], o["door"])
        manager.check_consistency()


class TestAnalyzeEvent:
    def test_unrelated_event_is_empty(self, company_world):
        db, path, o = company_world
        event = AttributeSet(o["door"], "BasePart", "Price", 1.0, 2.0)
        assert not analyze_event(db, path, event)

    def test_creation_is_empty(self, company_world):
        db, path, _o = company_world
        assert not analyze_event(db, path, ObjectCreated(next(db.objects()).oid, "Division"))

    def test_name_change_anchors(self, company_world):
        db, path, o = company_world
        event = AttributeSet(o["door"], "BasePart", "Name", "Door", "Gate")
        region = analyze_event(db, path, event)
        assert (2, o["door"]) in region.anchors
        assert (3, "Door") in region.anchors
        assert (3, "Gate") in region.anchors

    def test_rows_through_dead_oid_empty(self, company_world):
        db, path, o = company_world
        door = o["door"]
        db.delete(door)
        assert rows_through(db, path, 2, door, Extension.FULL) == set()

    def test_rows_through_null_empty(self, company_world):
        db, path, _o = company_world
        assert rows_through(db, path, 0, NULL, Extension.FULL) == set()


class TestRepeatedTypesAlongPath:
    """The paper's section 6 assumes an update affects a single position;
    the neighbourhood algorithm handles repeated (type, attribute) steps."""

    def make_cyclic_world(self):
        schema = Schema()
        schema.define_tuple("Node", {"Next": "Node", "Tag": "STRING"})
        schema.validate()
        db = ObjectBase(schema)
        nodes = [db.new("Node", Tag=f"n{i}") for i in range(6)]
        for a, b in zip(nodes, nodes[1:]):
            db.set_attr(a, "Next", b)
        path = PathExpression.parse(schema, "Node.Next.Next.Next")
        return db, path, nodes

    def test_self_referencing_type(self):
        db, path, nodes = self.make_cyclic_world()
        manager = ASRManager(db)
        for extension in Extension:
            manager.create(path, extension, Decomposition.binary(path.m))
        manager.check_consistency()
        # One physical edge matches all three steps of the path.
        db.set_attr(nodes[2], "Next", nodes[5])
        manager.check_consistency()
        db.set_attr(nodes[2], "Next", NULL)
        manager.check_consistency()
        db.set_attr(nodes[5], "Next", nodes[0])  # creates a cycle
        manager.check_consistency()
        db.delete(nodes[3])
        manager.check_consistency()

    def test_one_cell_at_two_columns_of_a_row(self):
        """A cycle shorter than the path puts one OID at two columns of
        one row; ``rows_at`` lists such a row once per column it holds
        the OID at, through add → discard → add."""
        db, path, nodes = self.make_cyclic_world()
        shadows = [
            Shadow(db, path, extension, decomposition)
            for extension in Extension
            for decomposition in (None, Decomposition.binary(path.m))
        ]
        n0, n1, n2 = nodes[:3]
        db.set_attr(nodes[5], "Next", n0)  # closes the six-cycle
        looped = (n0, n1, n2, n0)
        for _ in range(2):
            db.set_attr(n2, "Next", n0)  # add: 0 → 1 → 2 → 0
            for shadow in shadows:
                asr = shadow.asr
                assert looped in asr.recompose()
                assert asr.rows_at(0, n0).count(looped) == 1
                assert asr.rows_at(3, n0).count(looped) == 1
                assert looped not in asr.rows_at(1, n0)
            db.set_attr(n2, "Next", NULL)  # discard
            for shadow in shadows:
                assert looped not in shadow.asr.rows_at(0, n0)
                assert looped not in shadow.asr.rows_at(3, n0)
        db.set_attr(n0, "Next", n0)  # one OID at all four columns
        for shadow in shadows:
            asr = shadow.asr
            for column in range(path.m + 1):
                assert asr.rows_at(column, n0).count((n0, n0, n0, n0)) == 1
            asr.consistency_check(db)


class TestOldNeighbourhoodByKey:
    """``neighbourhood_delta`` finds the old neighbourhood through the
    partitions' lookups, never by a pass over the stored rows."""

    def test_relation_is_never_iterated(self, company_world, monkeypatch):
        db, path, o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m)
        )
        expected = asr.recompose()

        def scanned(*_args):
            raise AssertionError("neighbourhood_delta scanned the stored rows")

        monkeypatch.setattr(AccessSupportRelation, "recompose", scanned)
        monkeypatch.setattr(StoredPartition, "rows", scanned)
        monkeypatch.setattr(BPlusTree, "items", scanned)
        monkeypatch.setattr(BPlusTree, "_directory", scanned)
        old_name = db.attr(o["door"], "Name")
        db.set_attr(o["door"], "Name", "Gate")
        region = analyze_event(
            db, path, AttributeSet(o["door"], "BasePart", "Name", old_name, "Gate")
        )
        delta = neighbourhood_delta(db, asr, region)
        assert delta == scan_delta(db, path, Extension.FULL, expected, region)
        assert delta[0] and delta[1]

    def test_numeric_cells_match_as_equality_did(self, company_world):
        """``1``, ``1.0`` and ``True`` are one cell, as ``==`` made them
        one anchor, although ``cell_key`` ranks ``True`` apart; ``2``
        and the string ``"1"`` stay apart."""
        db, path, o = company_world
        labels = path.column_labels()
        pad = (NULL,) * (len(labels) - 2)
        rows = [
            (o["auto"],) + pad + (1,),
            (o["truck"],) + pad + (1.0,),
            (o["space"],) + pad + (True,),
            (o["sec"],) + pad + (2,),
            (o["trak"],) + pad + ("1",),
        ]
        asr = AccessSupportRelation(path, Extension.FULL)
        asr.reload(Relation(labels, rows))
        for anchor in (1, 1.0, True):
            assert set(asr.rows_at(path.m, anchor)) == set(rows[:3])
            region = DirtyRegion(frozenset({(path.n, anchor)}))
            delta = neighbourhood_delta(db, asr, region)
            stored = asr.recompose()
            assert delta == scan_delta(db, path, Extension.FULL, stored, region)
            assert delta[1] == set(rows[:3])
        assert asr.rows_at(path.m, 2) == [rows[3]]
        assert asr.rows_at(path.m, "1") == [rows[4]]
        # An anchor matches at its own column only.
        region = DirtyRegion(frozenset({(0, 1)}))
        assert neighbourhood_delta(db, asr, region) == (set(), set())
        assert_rows_at_matches_scan(asr)

    def test_decimal_terminal_update(self):
        schema = Schema()
        schema.define_tuple("Part", {"Price": "DECIMAL"})
        schema.define_tuple("Prod", {"Main": "Part"})
        schema.validate()
        db = ObjectBase(schema)
        parts = [db.new("Part", Price=price) for price in (1, 1.0, 2)]
        for part in parts:
            db.new("Prod", Main=part)
        path = PathExpression.parse(schema, "Prod.Main.Price")
        shadows = [Shadow(db, path, extension) for extension in Extension]
        db.set_attr(parts[0], "Price", 2)  # old anchor 1 also selects the 1.0 row
        db.set_attr(parts[1], "Price", 1)  # an equal row: nothing to change
        db.set_attr(parts[2], "Price", 1.0)
        for shadow in shadows:
            deltas = [delta for _event, _region, delta in shadow.events]
            assert deltas[0][0] and deltas[0][1] and deltas[1] == (set(), set())
            shadow.asr.consistency_check(db)

    def test_deleted_collection_is_found_through_dead(self, company_world):
        """A collection OID sits at a non-type column no anchor names;
        the stale relation of a batch gives it up through ``dead``."""
        db, path, o = company_world
        asr = AccessSupportRelation.build(db, path, Extension.FULL)
        victim = o["prods_truck"]
        column = next(
            c for c, spec in enumerate(path.columns) if spec.type_name == "ProdSET"
        )
        assert column not in {path.column_of(i) for i in range(path.n + 1)}
        stored = asr.recompose()
        held = {row for row in stored if victim in row}
        assert held and all(row[column] == victim for row in held)
        events = []
        db.subscribe(events.append)
        db.delete(victim)
        assert isinstance(events[-1], ObjectDeleted)
        region = analyze_event(db, path, events[-1])
        assert region.dead == {(column, victim)}
        only_dead = DirtyRegion(frozenset(), region.dead)
        delta = neighbourhood_delta(db, asr, only_dead)
        assert delta == scan_delta(db, path, Extension.FULL, stored, only_dead)
        assert delta == (set(), held)


# ----------------------------------------------------------------------
# hypothesis: random update streams vs rebuild
# ----------------------------------------------------------------------

operations = st.lists(
    st.tuples(
        st.sampled_from(["attr", "insert", "remove", "rename", "delete"]),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(operations, st.sampled_from(list(Extension)))
def test_random_streams_match_rebuild(ops, extension):
    schema = Schema()
    schema.define_tuple("Part", {"Name": "STRING"})
    schema.define_set("PartSET", "Part")
    schema.define_tuple("Prod", {"Parts": "PartSET"})
    schema.validate()
    db = ObjectBase(schema)
    parts = [db.new("Part", Name=f"p{i}") for i in range(6)]
    sets = [db.new_set("PartSET") for _ in range(4)]
    prods = [db.new("Prod") for _ in range(4)]
    path = PathExpression.parse(schema, "Prod.Parts.Name")
    manager = ASRManager(db)
    manager.create(path, extension, Decomposition.binary(path.m))
    manager.create(path, extension, Decomposition.none(path.m))
    shadow = Shadow(db, path, extension)
    alive_parts = list(parts)
    for op, x, y in ops:
        if op == "attr":
            db.set_attr(prods[x % 4], "Parts", sets[y % 4] if y < 4 else NULL)
        elif op == "insert" and alive_parts:
            db.set_insert(sets[x % 4], alive_parts[y % len(alive_parts)])
        elif op == "remove" and alive_parts:
            db.set_remove(sets[x % 4], alive_parts[y % len(alive_parts)])
        elif op == "rename" and alive_parts:
            db.set_attr(alive_parts[x % len(alive_parts)], "Name", f"r{y}")
        elif op == "delete" and len(alive_parts) > 1:
            victim = alive_parts.pop(x % len(alive_parts))
            db.delete(victim)
        manager.check_consistency()
        for asr in manager.asrs:
            assert_rows_at_matches_scan(asr)
        assert shadow.asr.recompose() == manager.asrs[0].recompose()
