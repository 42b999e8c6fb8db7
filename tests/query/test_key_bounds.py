"""The one-sided range-scan sentinels (BOTTOM/TOP) and their regression.

The executor used to build one-sided scans from *finite* per-rank
sentinels (``float("inf")`` for numbers, ``"\\uffff" * 8`` for strings).
Strings sorting above that top sentinel silently escaped every ``>=``
scan — the ASR fast path returned fewer rows than the nested-loop
semantics.  :data:`repro.asr.asr.BOTTOM` / :data:`repro.asr.asr.TOP`
sort below/above every real cell of every rank, closing the hole.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.asr.asr import BOTTOM, TOP, cell_key, prefix_bounds, tree_keys
from repro.gom.objects import OID
from repro.gom.types import NULL
from repro.query import Planner, QueryEvaluator, SelectExecutor

#: One representative cell per rank of the total order, including the
#: values the old finite sentinels claimed to bound.
REPRESENTATIVE_CELLS = [
    NULL,
    OID(0),
    OID(2**62),
    False,
    True,
    float("-inf"),
    -1.5,
    0,
    10**30,
    float("inf"),
    "",
    "zebra",
    "￿" * 8,  # the old string top sentinel itself …
    "￿" * 9,  # … and a real value sorting above it
]


class TestSentinelOrder:
    @pytest.mark.parametrize("cell", REPRESENTATIVE_CELLS, ids=repr)
    def test_bottom_below_and_top_above_every_cell(self, cell):
        assert cell_key(BOTTOM) < cell_key(cell) < cell_key(TOP)
        # Tree keys are (cell key, flat row key) pairs: the sentinels'
        # scan bounds hold them too, and so do the cell's own prefix
        # bounds whatever the rest of the row.
        lo, hi = prefix_bounds(cell)
        for other in (NULL, OID(2**62), "￿" * 9):
            forward, _ = tree_keys((cell, other))
            _, backward = tree_keys((other, cell))
            for key in (forward, backward):
                assert (cell_key(BOTTOM), ()) < key < (cell_key(TOP), ())
                assert lo < key < hi

    def test_sentinels_bound_each_other(self):
        assert cell_key(BOTTOM) < cell_key(TOP)

    def test_reprs_name_the_sentinels(self):
        assert repr(BOTTOM) == "BOTTOM"
        assert repr(TOP) == "TOP"


class TestOneSidedScanRegression:
    @pytest.fixture()
    def extreme_world(self, company_world):
        """The company world plus a division reaching *only* a part
        named above the old string top sentinel — the shape the finite
        sentinels lost."""
        db, path, objects = company_world
        beyond = db.new("BasePart", Name="￿" * 9, Price=1.0)
        parts = db.new_set("BasePartSET", [beyond])
        product = db.new("Product", Name="Edge Case", Composition=parts)
        prods = db.new_set("ProdSET", [product])
        division = db.new("Division", Name="Edge", Manufactures=prods)
        db.set_insert(db.get_var("Mercedes"), division)
        return db, path, objects

    def _executor(self, db, path):
        # Undecomposed, so the price list takes the ASR's range scan.
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        return SelectExecutor(db, Planner(manager), QueryEvaluator(db))

    def test_ge_scan_reaches_values_above_old_string_sentinel(
        self, extreme_world
    ):
        db, path, _objects = extreme_world
        executor = self._executor(db, path)
        query = (
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name >= "Door"'
        )
        fast = executor.run(query)
        slow = SelectExecutor(db).run(query)
        assert fast.strategy.startswith("asr-backward")
        # "Edge" reaches only the "￿"*9 part; the old finite sentinel
        # scan dropped it.  ASR and nested-loop answers must agree.
        assert sorted(fast.rows) == sorted(slow.rows)
        assert ("Edge",) in fast.rows

    def test_lt_scan_matches_nested_loop(self, extreme_world):
        db, path, _objects = extreme_world
        executor = self._executor(db, path)
        query = (
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name < "Pepper"'
        )
        fast = executor.run(query)
        slow = SelectExecutor(db).run(query)
        assert fast.strategy.startswith("asr-backward")
        assert sorted(fast.rows) == sorted(slow.rows)

    def test_numeric_ge_scan_reaches_infinity(self, company_world):
        # The old numeric top sentinel was float("inf") under half-open
        # bounds, so an actual infinite value escaped the >= scan.
        db, _path, _objects = company_world
        from repro.gom import PathExpression

        price_path = PathExpression.parse(
            db.schema, "Division.Manufactures.Composition.Price"
        )
        infinite = db.new("BasePart", Name="Free", Price=float("inf"))
        parts = db.new_set("BasePartSET", [infinite])
        product = db.new("Product", Name="Gratis", Composition=parts)
        prods = db.new_set("ProdSET", [product])
        division = db.new("Division", Name="Freebie", Manufactures=prods)
        db.set_insert(db.get_var("Mercedes"), division)
        executor = self._executor(db, price_path)
        query = (
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Price >= 1000'
        )
        fast = executor.run(query)
        slow = SelectExecutor(db).run(query)
        assert fast.strategy.startswith("asr-backward")
        assert sorted(fast.rows) == sorted(slow.rows)
        assert ("Freebie",) in fast.rows
