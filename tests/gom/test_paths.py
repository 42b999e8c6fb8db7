"""Unit tests for path expressions (Definition 3.1)."""

import pytest

from repro.errors import PathError
from repro.gom import PathExpression, Schema


@pytest.fixture()
def schema(company_world):
    db, _path, _objects = company_world
    return db.schema


class TestLinearPaths:
    def test_robot_path(self, robot_world):
        _db, path, _objects = robot_world
        assert path.n == 4
        assert path.k == 0
        assert path.m == 4
        assert path.is_linear
        assert path.types == ("ROBOT", "ARM", "TOOL", "MANUFACTURER", "STRING")
        assert path.terminal_is_atomic

    def test_columns_match_type_indices(self, robot_world):
        _db, path, _objects = robot_world
        assert [path.column_of(i) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_str_round_trip(self, robot_world):
        db, path, _objects = robot_world
        assert PathExpression.parse(db.schema, str(path)) == path


class TestGeneralPaths:
    def test_company_path_set_occurrences(self, company_world):
        _db, path, _objects = company_world
        assert path.n == 3
        assert path.k == 2
        assert path.m == 5
        assert not path.is_linear
        assert [step.is_set_occurrence for step in path.steps] == [True, True, False]

    def test_column_of_with_set_columns(self, company_world):
        _db, path, _objects = company_world
        # Division=0, (ProdSET=1), Product=2, (BasePartSET=3), BasePart=4, Name=5
        assert [path.column_of(i) for i in range(4)] == [0, 2, 4, 5]

    def test_type_index_of_column(self, company_world):
        _db, path, _objects = company_world
        assert [path.type_index_of_column(c) for c in range(6)] == [0, 1, 1, 2, 2, 3]

    def test_column_labels(self, company_world):
        _db, path, _objects = company_world
        assert path.column_labels() == [
            "OID_Division",
            "OID_ProdSET",
            "OID_Product",
            "OID_BasePartSET",
            "OID_BasePart",
            "VALUE_STRING",
        ]


class TestValidation:
    def test_unknown_attribute(self, schema):
        with pytest.raises(Exception):
            PathExpression(schema, "Division", ["Ghost"])

    def test_empty_path_rejected(self, schema):
        with pytest.raises(PathError):
            PathExpression(schema, "Division", [])

    def test_atomic_anchor_rejected(self, schema):
        with pytest.raises(PathError):
            PathExpression(schema, "STRING", ["length"])

    def test_continuing_past_atomic_rejected(self, schema):
        with pytest.raises(PathError, match="atomic"):
            PathExpression(schema, "Division", ["Name", "Length"])

    def test_parse_requires_anchor_and_attribute(self, schema):
        with pytest.raises(PathError):
            PathExpression.parse(schema, "Division")
        with pytest.raises(PathError):
            PathExpression.parse(schema, "Division..Name")

    def test_equality_and_hash(self, schema):
        a = PathExpression(schema, "Division", ["Name"])
        b = PathExpression.parse(schema, "Division.Name")
        assert a == b
        assert hash(a) == hash(b)
        assert a != PathExpression(schema, "Division", ["Manufactures"])


class TestListOccurrence:
    def test_list_steps_treated_like_sets(self):
        schema = Schema()
        schema.define_tuple("Item", {"Name": "STRING"})
        schema.define_list("ItemLIST", "Item")
        schema.define_tuple("Order", {"Items": "ItemLIST"})
        schema.validate()
        path = PathExpression.parse(schema, "Order.Items.Name")
        assert path.k == 1
        assert path.steps[0].collection_type == "ItemLIST"
