"""Unit tests for schema registration, inheritance, and subtyping."""

import pytest

from repro.errors import SchemaError
from repro.gom import Schema


@pytest.fixture()
def schema():
    return Schema()


class TestRegistration:
    def test_define_and_lookup(self, schema):
        schema.define_tuple("T", {"Name": "STRING"})
        assert schema.lookup("T").name == "T"
        assert "T" in schema

    def test_duplicate_rejected(self, schema):
        schema.define_tuple("T", {})
        with pytest.raises(SchemaError, match="already defined"):
            schema.define_tuple("T", {})

    def test_builtin_name_collision_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.define_tuple("STRING", {})

    def test_unknown_lookup(self, schema):
        with pytest.raises(SchemaError, match="unknown type"):
            schema.lookup("Nope")

    def test_kind_checked_lookups(self, schema):
        schema.define_tuple("T", {})
        schema.define_set("S", "T")
        assert schema.tuple_type("T").name == "T"
        assert schema.collection_type("S").name == "S"
        with pytest.raises(SchemaError):
            schema.tuple_type("S")
        with pytest.raises(SchemaError):
            schema.collection_type("T")

    def test_forward_reference_allowed_until_validate(self, schema):
        schema.define_tuple("A", {"Next": "B"})
        with pytest.raises(SchemaError, match="undefined type"):
            schema.validate()
        schema.define_tuple("B", {})
        schema.validate()

    def test_nested_collections_rejected(self, schema):
        schema.define_tuple("T", {})
        schema.define_set("S", "T")
        with pytest.raises(SchemaError, match="powersets"):
            schema.define_set("SS", "S")

    def test_list_types(self, schema):
        schema.define_tuple("T", {})
        schema.define_list("L", "T")
        assert schema.collection_type("L").element_type == "T"


class TestInheritance:
    def test_single_inheritance_attributes(self, schema):
        schema.define_tuple("Base", {"Name": "STRING"})
        schema.define_tuple("Sub", {"Extra": "INTEGER"}, supertypes=["Base"])
        assert schema.attributes_of("Sub") == {"Name": "STRING", "Extra": "INTEGER"}

    def test_multiple_inheritance_merges(self, schema):
        schema.define_tuple("A", {"X": "STRING"})
        schema.define_tuple("B", {"Y": "INTEGER"})
        schema.define_tuple("C", {}, supertypes=["A", "B"])
        assert schema.attributes_of("C") == {"X": "STRING", "Y": "INTEGER"}

    def test_conflicting_inherited_types_rejected(self, schema):
        schema.define_tuple("A", {"X": "STRING"})
        schema.define_tuple("B", {"X": "INTEGER"})
        with pytest.raises(SchemaError, match="conflicting"):
            schema.define_tuple("C", {}, supertypes=["A", "B"])

    def test_redeclaration_with_other_type_rejected(self, schema):
        schema.define_tuple("A", {"X": "STRING"})
        with pytest.raises(SchemaError, match="redeclared"):
            schema.define_tuple("B", {"X": "INTEGER"}, supertypes=["A"])

    def test_unknown_supertype_rejected(self, schema):
        with pytest.raises(SchemaError, match="unknown supertype"):
            schema.define_tuple("Sub", {}, supertypes=["Ghost"])

    def test_non_tuple_supertype_rejected(self, schema):
        schema.define_tuple("T", {})
        schema.define_set("S", "T")
        with pytest.raises(SchemaError, match="not tuple-structured"):
            schema.define_tuple("Sub", {}, supertypes=["S"])

    def test_transitive_supertypes(self, schema):
        schema.define_tuple("A", {})
        schema.define_tuple("B", {}, supertypes=["A"])
        schema.define_tuple("C", {}, supertypes=["B"])
        assert schema.supertypes_of("C") == ["B", "A"]
        assert schema.subtypes_of("A") == ["B", "C"] or set(
            schema.subtypes_of("A")
        ) == {"B", "C"}

    def test_is_subtype(self, schema):
        schema.define_tuple("A", {})
        schema.define_tuple("B", {}, supertypes=["A"])
        assert schema.is_subtype("B", "A")
        assert schema.is_subtype("A", "A")
        assert not schema.is_subtype("A", "B")
        assert schema.is_subtype("STRING", "STRING")
        assert not schema.is_subtype("STRING", "INTEGER")

    def test_diamond_inheritance(self, schema):
        schema.define_tuple("Top", {"T": "STRING"})
        schema.define_tuple("L", {}, supertypes=["Top"])
        schema.define_tuple("R", {}, supertypes=["Top"])
        schema.define_tuple("Bottom", {}, supertypes=["L", "R"])
        assert schema.attributes_of("Bottom") == {"T": "STRING"}
        assert schema.is_subtype("Bottom", "Top")

    def test_attributes_are_merged_once_until_the_next_define(self, schema):
        schema.define_tuple("Base", {"Name": "STRING"})
        schema.define_tuple("Mid", {"Size": "INTEGER"}, supertypes=["Base"])
        merged = schema.attributes_of("Mid")
        assert schema.attributes_of("Mid") is merged
        assert merged == schema._attributes_of_name("Mid")
        schema.define_tuple("Leaf", {"Extra": "BOOLEAN"}, supertypes=["Mid"])
        assert schema.attributes_of("Mid") is not merged  # define cleared it
        assert schema.attributes_of("Mid") == merged
        assert schema.attributes_of("Leaf") == {
            "Name": "STRING",
            "Size": "INTEGER",
            "Extra": "BOOLEAN",
        }
        assert schema.attributes_of("Leaf") is schema.attributes_of("Leaf")


class TestAttributeResolution:
    def test_attribute_type(self, schema):
        schema.define_tuple("M", {"Name": "STRING"})
        schema.define_tuple("T", {"By": "M"})
        assert schema.attribute_type("T", "By").name == "M"

    def test_missing_attribute(self, schema):
        schema.define_tuple("T", {})
        with pytest.raises(SchemaError, match="no attribute"):
            schema.attribute_type("T", "Ghost")

    def test_inherited_attribute_type(self, schema):
        schema.define_tuple("Base", {"Name": "STRING"})
        schema.define_tuple("Sub", {}, supertypes=["Base"])
        assert schema.attribute_type("Sub", "Name").name == "STRING"
