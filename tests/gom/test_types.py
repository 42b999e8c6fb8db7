"""Unit tests for the GOM type system."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SchemaError
from repro.gom.types import (
    BOOLEAN,
    BUILTIN_ATOMIC_TYPES,
    DECIMAL,
    INTEGER,
    NULL,
    STRING,
    ListType,
    Null,
    SetType,
    TupleType,
)


class TestNull:
    def test_singleton(self):
        assert Null() is NULL
        assert Null() is Null()

    def test_falsy(self):
        assert not NULL
        assert bool(NULL) is False

    def test_repr(self):
        assert repr(NULL) == "NULL"

    def test_survives_copy_and_pickle(self):
        assert copy.copy(NULL) is NULL
        assert copy.deepcopy(NULL) is NULL
        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_identity_equality(self):
        assert NULL == NULL
        assert NULL != 0
        assert NULL != ""

    def test_row_set_order_is_a_function_of_the_values_not_the_process(self):
        # An address-hashed NULL makes a set of rows iterate in a
        # per-process order, and maintenance walks such sets: the same
        # seeded stream then touches a different number of pages per run.
        script = (
            "from repro.gom import NULL, OID\n"
            "rows = {(OID(v), NULL if v % 3 else OID(v + 1), NULL)"
            " for v in range(0, 4000, 37)}\n"
            "print(hash(NULL), list(rows))\n"
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
        assert printed[0] == printed[1] and "NULL" in printed[0]
        assert hash(NULL) == hash(copy.deepcopy(NULL)) == int(printed[0].split()[0])


class TestAtomicTypes:
    def test_builtins_registered(self):
        names = {t.name for t in BUILTIN_ATOMIC_TYPES}
        assert names == {"STRING", "CHAR", "INTEGER", "DECIMAL", "FLOAT", "BOOLEAN"}

    def test_string_accepts(self):
        assert STRING.accepts("hello")
        assert not STRING.accepts(5)

    def test_integer_rejects_bool(self):
        assert INTEGER.accepts(42)
        assert not INTEGER.accepts(True)

    def test_boolean_accepts_bool(self):
        assert BOOLEAN.accepts(True)
        assert not BOOLEAN.accepts(1)

    def test_decimal_accepts_int_and_float(self):
        assert DECIMAL.accepts(1205.50)
        assert DECIMAL.accepts(12)
        assert not DECIMAL.accepts(True)

    def test_kind_predicates(self):
        assert not STRING.is_collection()


class TestConstructors:
    def test_tuple_type_attributes_copied(self):
        attributes = {"Name": "STRING"}
        t = TupleType("T", attributes)
        attributes["Name"] = "INTEGER"
        assert t.attributes["Name"] == "STRING"

    def test_tuple_type_self_supertype_rejected(self):
        with pytest.raises(SchemaError):
            TupleType("T", {}, supertypes=("T",))

    def test_tuple_type_repr_mentions_supertypes(self):
        t = TupleType("Sub", {"X": "STRING"}, supertypes=("Base",))
        assert "Base" in repr(t)
        assert "X: STRING" in repr(t)

    def test_set_and_list_predicates(self):
        s = SetType("S", "T")
        l = ListType("L", "T")
        assert s.is_set() and s.is_collection() and not s.is_list()
        assert l.is_list() and l.is_collection() and not l.is_set()

    def test_tuple_type_hashable(self):
        a = TupleType("T", {"Name": "STRING"})
        b = TupleType("T", {"Name": "STRING"})
        assert hash(a) == hash(b)
        assert a == b
