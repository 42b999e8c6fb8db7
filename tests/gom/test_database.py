"""Unit tests for the object base: instantiation, typing, updates, events."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ObjectBaseError, TypingError
from repro.gom import (
    NULL,
    OID,
    AttributeSet,
    ObjectBase,
    ObjectCreated,
    ObjectDeleted,
    Schema,
    SetInserted,
    SetRemoved,
)


@pytest.fixture()
def schema():
    s = Schema()
    s.define_tuple("Part", {"Name": "STRING", "Price": "DECIMAL"})
    s.define_set("PartSET", "Part")
    s.define_tuple("Product", {"Name": "STRING", "Parts": "PartSET"})
    s.define_tuple("SpecialPart", {"Grade": "INTEGER"}, supertypes=["Part"])
    s.define_list("PartLIST", "Part")
    s.validate()
    return s


@pytest.fixture()
def db(schema):
    return ObjectBase(schema)


class TestOID:
    """The tuple-backed ``OID`` keeps the contract of the dataclass it replaced."""

    def test_equality_is_by_class_and_value(self):
        assert OID(7) == OID(7) and hash(OID(7)) == hash(OID(7))
        assert OID(7) != OID(8)
        assert OID(7) != 7 and 7 != OID(7)  # never equal to its bare value
        assert {OID(7), 7, OID(7)} == {7, OID(7)}
        assert (OID(1), 7.0) in {(OID(1), 7)}

    def test_order_frozen_copy_and_pickle_survive(self):
        assert OID(1) < OID(2) <= OID(2) and max(OID(3), OID(9)) == OID(9)
        with pytest.raises(AttributeError):
            OID(1).value = 2
        for clone in (
            copy.copy(OID(5)),
            copy.deepcopy(OID(5)),
            pickle.loads(pickle.dumps(OID(5))),
        ):
            assert clone == OID(5) and hash(clone) == hash(OID(5))

    def test_an_oid_is_not_an_int(self):
        assert not isinstance(OID(7), int) and isinstance(OID(7), OID)
        assert OID(7).value == 7 and repr(OID(7)) == "i7"
        with pytest.raises(TypeError):
            OID(7) + 1
        with pytest.raises(TypeError):
            OID(7) < 8

    def test_no_json_boundary_renders_an_oid_as_a_list(self):
        # An OID is a tuple, so a bare ``json.dumps`` would emit ``[42]``
        # where the dataclass raised: both boundaries must encode it first.
        from repro.gom.serialization import decode_cell, encode_cell
        from repro.query.service import jsonable_cell

        for cell in (OID(42), NULL, 42, 4.5, "i42", True):
            rendered = json.dumps(jsonable_cell(cell))
            assert "[" not in rendered
            assert decode_cell(json.loads(json.dumps(encode_cell(cell)))) == cell
        assert json.dumps(jsonable_cell(OID(42))) == '"i42"'
        assert not isinstance(encode_cell(OID(42)), (list, tuple))

    def test_set_order_is_a_function_of_the_values_not_the_process(self):
        # What an identity-hashed flyweight would break: two processes
        # with different hash seeds iterate a set of OIDs in one order.
        script = (
            "from repro.gom import OID\n"
            "print(list({OID(v) for v in range(0, 4000, 37)}))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        printed = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            ).stdout
            for seed in ("1", "2")
        ]
        assert printed[0] == printed[1] and printed[0].startswith("[i")


class TestInstantiation:
    def test_new_initializes_all_attributes_to_null(self, db):
        oid = db.new("Part")
        assert db.attr(oid, "Name") is NULL
        assert db.attr(oid, "Price") is NULL

    def test_new_with_kwargs(self, db):
        oid = db.new("Part", Name="Door", Price=1205.50)
        assert db.attr(oid, "Name") == "Door"

    def test_subtype_inherits_attributes(self, db):
        oid = db.new("SpecialPart", Name="Gear", Grade=3)
        assert db.attr(oid, "Name") == "Gear"
        assert db.attr(oid, "Grade") == 3

    def test_oids_unique_and_ordered(self, db):
        a, b = db.new("Part"), db.new("Part")
        assert a != b and a < b

    def test_new_set_and_members(self, db):
        p = db.new("Part")
        s = db.new_set("PartSET", [p])
        assert db.members(s) == frozenset({p})

    def test_new_list_preserves_order(self, db):
        p1, p2 = db.new("Part"), db.new("Part")
        l = db.new_list("PartLIST", [p2, p1])
        assert db.members(l) == (p2, p1)

    def test_new_set_on_list_type_rejected(self, db):
        with pytest.raises(TypingError):
            db.new_set("PartLIST")

    def test_instantiating_collection_via_new_rejected(self, db):
        with pytest.raises(Exception):
            db.new("PartSET")


class TestTyping:
    def test_atomic_type_mismatch(self, db):
        oid = db.new("Part")
        with pytest.raises(TypingError):
            db.set_attr(oid, "Name", 42)

    def test_object_where_atomic_expected(self, db):
        a, b = db.new("Part"), db.new("Part")
        with pytest.raises(TypingError):
            db.set_attr(a, "Name", b)

    def test_atomic_where_object_expected(self, db):
        prod = db.new("Product")
        with pytest.raises(TypingError):
            db.set_attr(prod, "Parts", "not-an-oid")

    def test_subtype_substitutability(self, db):
        special = db.new("SpecialPart", Name="Gear")
        s = db.new_set("PartSET")
        db.set_insert(s, special)  # SpecialPart conforms to Part
        assert special in db.members(s)

    def test_wrong_object_type_rejected(self, db):
        prod = db.new("Product")
        other = db.new("Part")
        with pytest.raises(TypingError):
            db.set_attr(prod, "Parts", other)

    def test_null_always_conforms(self, db):
        prod = db.new("Product")
        db.set_attr(prod, "Parts", NULL)
        assert db.attr(prod, "Parts") is NULL

    def test_null_not_a_set_member(self, db):
        s = db.new_set("PartSET")
        with pytest.raises(TypingError):
            db.set_insert(s, NULL)

    def test_unknown_attribute(self, db):
        oid = db.new("Part")
        with pytest.raises(ObjectBaseError):
            db.set_attr(oid, "Ghost", 1)
        with pytest.raises(ObjectBaseError):
            db.attr(oid, "Ghost")


class TestExtentsAndVariables:
    def test_extent_includes_subtypes(self, db):
        p = db.new("Part")
        sp = db.new("SpecialPart")
        assert db.extent("Part") == {p, sp}
        assert db.extent("Part", include_subtypes=False) == {p}

    def test_variables(self, db):
        p = db.new("Part")
        db.set_var("Favourite", p, "Part")
        assert db.get_var("Favourite") == p
        assert db.var_type("Favourite") == "Part"

    def test_variable_type_checked(self, db):
        prod = db.new("Product")
        with pytest.raises(TypingError):
            db.set_var("Favourite", prod, "Part")

    def test_unknown_variable(self, db):
        with pytest.raises(ObjectBaseError):
            db.get_var("Ghost")


class TestUpdatesAndReferrers:
    def test_set_insert_remove(self, db):
        p = db.new("Part")
        s = db.new_set("PartSET")
        assert db.set_insert(s, p) is True
        assert db.set_insert(s, p) is False  # duplicate
        assert db.set_remove(s, p) is True
        assert db.set_remove(s, p) is False

    def test_referrers_tracked(self, db):
        p = db.new("Part")
        s = db.new_set("PartSET", [p])
        prod = db.new("Product", Parts=s)
        assert db.referrers(p) == {s}
        assert db.referrers(s) == {prod}

    def test_referrers_updated_on_overwrite(self, db):
        s1 = db.new_set("PartSET")
        s2 = db.new_set("PartSET")
        prod = db.new("Product", Parts=s1)
        db.set_attr(prod, "Parts", s2)
        assert db.referrers(s1) == set()
        assert db.referrers(s2) == {prod}

    def test_delete_nulls_incoming_references(self, db):
        p = db.new("Part")
        s = db.new_set("PartSET", [p])
        prod = db.new("Product", Parts=s)
        db.delete(s)
        assert db.attr(prod, "Parts") is NULL
        assert s not in db

    def test_delete_removes_from_sets(self, db):
        p = db.new("Part")
        s = db.new_set("PartSET", [p])
        db.delete(p)
        assert db.members(s) == frozenset()

    def test_dangling_oid_rejected(self, db):
        p = db.new("Part")
        db.delete(p)
        with pytest.raises(ObjectBaseError, match="dangling"):
            db.get(p)


class TestEvents:
    def test_event_stream(self, db):
        events = []
        db.subscribe(events.append)
        p = db.new("Part", Name="Door")
        s = db.new_set("PartSET", [p])
        db.set_remove(s, p)
        db.delete(p)
        kinds = [type(e) for e in events]
        assert kinds[0] is ObjectCreated
        assert AttributeSet in kinds
        assert SetInserted in kinds
        assert SetRemoved in kinds
        assert kinds[-1] is ObjectDeleted

    def test_attribute_set_carries_old_value(self, db):
        events = []
        p = db.new("Part", Name="Door")
        db.subscribe(events.append)
        db.set_attr(p, "Name", "Gate")
        (event,) = events
        assert event.old_value == "Door"
        assert event.new_value == "Gate"

    def test_noop_assignment_emits_nothing(self, db):
        p = db.new("Part", Name="Door")
        events = []
        db.subscribe(events.append)
        db.set_attr(p, "Name", "Door")
        assert events == []

    def test_set_inserted_owner(self, db):
        s = db.new_set("PartSET")
        prod = db.new("Product", Parts=s)
        events = []
        db.subscribe(events.append)
        p = db.new("Part")
        db.set_insert(s, p)
        inserted = [e for e in events if isinstance(e, SetInserted)]
        assert inserted[0].owner == prod

    def test_unsubscribe(self, db):
        events = []
        db.subscribe(events.append)
        db.unsubscribe(events.append)
        db.new("Part")
        assert events == []
