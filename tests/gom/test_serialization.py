"""Persistence: object bases and ASR configurations round-trip via JSON."""

import json

import pytest

from repro.asr import ASRManager, Decomposition, Extension, build_extension
from repro.errors import ObjectBaseError
from repro.gom import NULL
from repro.gom.objects import OID
from repro.gom.serialization import (
    decode_cell,
    dump_object_base,
    encode_cell,
    load,
    load_object_base,
    save,
)


class TestCellEncoding:
    @pytest.mark.parametrize(
        "cell", [NULL, OID(7), "Door", 42, 3.5, True, False]
    )
    def test_round_trip(self, cell):
        decoded = decode_cell(json.loads(json.dumps(encode_cell(cell))))
        assert decoded == cell
        assert type(decoded) is type(cell)

    def test_null_identity(self):
        assert decode_cell(encode_cell(NULL)) is NULL

    def test_malformed(self):
        with pytest.raises(ObjectBaseError):
            decode_cell({"what": 1})


class TestObjectBaseRoundTrip:
    def test_company_world(self, company_world, tmp_path):
        db, path, o = company_world
        target = tmp_path / "company.json"
        save(db, target)
        loaded, asrs = load(target)
        assert asrs == []
        assert len(loaded) == len(db)
        # Same extents, same values, same variables.
        for type_name in ("Division", "Product", "BasePart"):
            assert {x.value for x in loaded.extent(type_name)} == {
                x.value for x in db.extent(type_name)
            }
        assert loaded.attr(o["door"], "Name") == "Door"
        assert loaded.attr(o["door"], "Price") == 1205.50
        assert loaded.attr(o["space"], "Manufactures") is NULL
        assert loaded.members(o["parts_sec"]) == db.members(o["parts_sec"])
        assert loaded.get_var("Mercedes") == db.get_var("Mercedes")
        assert loaded.var_type("Mercedes") == "Company"
        # Extensions over the loaded base match the original.
        for extension in Extension:
            assert (
                build_extension(loaded, path, extension).rows
                == build_extension(db, path, extension).rows
            )

    def test_oids_allocated_after_load_do_not_collide(self, company_world, tmp_path):
        db, _path, _o = company_world
        save(db, tmp_path / "db.json")
        loaded, _ = load(tmp_path / "db.json")
        fresh = loaded.new("BasePart", Name="Bolt")
        assert fresh not in db or fresh.value >= len(db)
        assert fresh.value not in {instance.oid.value for instance in db.objects()}

    def test_lists_round_trip(self, tmp_path):
        from repro.gom import ObjectBase, Schema

        schema = Schema()
        schema.define_tuple("Item", {"Name": "STRING"})
        schema.define_list("Items", "Item")
        schema.validate()
        db = ObjectBase(schema)
        a = db.new("Item", Name="a")
        b = db.new("Item", Name="b")
        ordered = db.new_list("Items", [b, a, b] if False else [b, a])
        save(db, tmp_path / "lists.json")
        loaded, _ = load(tmp_path / "lists.json")
        assert loaded.members(ordered) == (b, a)

    def test_inherited_types_round_trip(self, tmp_path):
        from repro.gom import ObjectBase, Schema

        schema = Schema()
        schema.define_tuple("Base", {"Name": "STRING"})
        schema.define_tuple("Sub", {"Extra": "INTEGER"}, supertypes=["Base"])
        schema.validate()
        db = ObjectBase(schema)
        oid = db.new("Sub", Name="x", Extra=3)
        save(db, tmp_path / "inherit.json")
        loaded, _ = load(tmp_path / "inherit.json")
        assert loaded.attr(oid, "Name") == "x"
        assert loaded.type_of(oid) == "Sub"
        assert oid in loaded.extent("Base")


class TestASRConfigurations:
    def test_asrs_rematerialized(self, company_world, tmp_path):
        db, path, _o = company_world
        manager = ASRManager(db)
        original = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        target = tmp_path / "with_asr.json"
        save(db, target, asrs=manager.asrs)
        loaded, asrs = load(target)
        assert len(asrs) == 1
        restored = asrs[0]
        assert restored.extension is Extension.FULL
        assert restored.decomposition.borders == original.decomposition.borders
        assert restored.recompose().rows == original.recompose().rows
        restored.consistency_check(loaded)


class TestFormatGuards:
    def test_wrong_format(self):
        with pytest.raises(ObjectBaseError, match="not a"):
            load_object_base({"format": "something-else", "version": 1})

    def test_wrong_version(self):
        with pytest.raises(ObjectBaseError, match="version"):
            load_object_base({"format": "repro-objectbase", "version": 99})

    def test_duplicate_oid_rejected(self, company_world):
        db, _path, _o = company_world
        data = dump_object_base(db)
        data["objects"].append(dict(data["objects"][0]))
        with pytest.raises(ObjectBaseError, match="duplicate"):
            load_object_base(data)


# ----------------------------------------------------------------------
# property-based: random worlds round-trip exactly
# ----------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import Extension as _Extension
from tests.asr.test_extensions import build_random_world

_indices = st.integers(0, 3)
_edges = st.frozensets(st.tuples(_indices, _indices), max_size=8)


@settings(max_examples=50, deadline=None)
@given(_edges, _edges, st.frozensets(_indices, max_size=2))
def test_random_world_round_trip(edge01, edge12, empty_sets):
    db, path = build_random_world(edge01, edge12, empty_sets, False)
    loaded, _asrs = load_object_base(dump_object_base(db))
    assert len(loaded) == len(db)
    for instance in db.objects():
        restored = loaded.get(instance.oid)
        assert restored.type_name == instance.type_name
        if isinstance(instance.value, dict):
            for attr in instance.value:
                assert loaded.attr(instance.oid, attr) == db.attr(
                    instance.oid, attr
                )
        else:
            assert loaded.members(instance.oid) == db.members(instance.oid)
    for extension in _Extension:
        original = build_extension(db, path, extension).rows
        restored = build_extension(loaded, path, extension).rows
        assert original == restored, extension
