"""End-to-end reproduction of the paper's running examples (sections 2-3)."""

from repro.asr import ASRManager, Decomposition, Extension, build_extension
from repro.gom import NULL
from repro.query import (
    BackwardQuery,
    Planner,
    QueryEvaluator,
    SelectExecutor,
)


class TestSection2Queries:
    def test_query1_full_pipeline(self, robot_world):
        """Query 1 over the Figure 1 extension, via ASR.

        Undecomposed, the ASR answers with one lookup, which the price
        list ranks below the traversal (binary partitions would not be).
        """
        db, path, objects = robot_world
        manager = ASRManager(db)
        manager.create(path, Extension.CANONICAL, Decomposition.none(path.m))
        executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
        report = executor.run(
            'select r.Name from r in OurRobots '
            'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
        )
        assert sorted(report.rows) == [("R2D2",), ("Robi",), ("X4D5",)]
        assert report.strategy.startswith("asr-backward")

    def test_query2_and_query3(self, company_world):
        db, path, _objects = company_world
        executor = SelectExecutor(db)
        assert sorted(
            executor.run(
                'select d.Name from d in Mercedes, b in d.Manufactures.Composition '
                'where b.Name = "Door"'
            ).rows
        ) == [("Auto",), ("Truck",)]
        assert executor.run(
            'select d.Manufactures.Composition.Name from d in Mercedes '
            'where d.Name = "Auto"'
        ).rows == [("Door",)]


class TestSection3Tables:
    """The extension tables printed in section 3 of the paper."""

    def test_canonical_table(self, company_world):
        db, path, o = company_world
        canonical = build_extension(db, path, Extension.CANONICAL)
        # "i1 i4 i6 i7 i8 Door" in the paper's numbering.
        assert (
            o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door"
        ) in canonical.rows
        assert all(
            all(cell is not NULL for cell in row) for row in canonical.rows
        )

    def test_full_table_has_both_stub_kinds(self, company_world):
        db, path, o = company_world
        full = build_extension(db, path, Extension.FULL)
        # "i2 i5 i9 NULL NULL NULL": started but incomplete.
        assert (o["truck"], o["prods_truck"], o["trak"], NULL, NULL, NULL) in full.rows
        # "NULL NULL i11 i13 i14 Pepper": complete on the right only.
        assert (
            NULL, NULL, o["sausage"], o["parts_sausage"], o["pepper"], "Pepper"
        ) in full.rows

    def test_left_table(self, company_world):
        db, path, o = company_world
        left = build_extension(db, path, Extension.LEFT)
        assert (o["truck"], o["prods_truck"], o["trak"], NULL, NULL, NULL) in left.rows
        assert not any(row[0] is NULL for row in left.rows)

    def test_right_table(self, company_world):
        db, path, o = company_world
        right = build_extension(db, path, Extension.RIGHT)
        assert (
            NULL, NULL, o["sausage"], o["parts_sausage"], o["pepper"], "Pepper"
        ) in right.rows
        assert not any(row[-1] is NULL for row in right.rows)

    def test_binary_decomposition_table(self, company_world):
        """The five binary partitions of E_can shown in section 3."""
        db, path, o = company_world
        canonical = build_extension(db, path, Extension.CANONICAL)
        partitions = Decomposition.binary(path.m).materialize(canonical)
        assert len(partitions) == 5
        assert (o["auto"], o["prods_auto"]) in partitions[0].rows
        assert (o["prods_auto"], o["sec"]) in partitions[1].rows
        assert (o["sec"], o["parts_sec"]) in partitions[2].rows
        assert (o["parts_sec"], o["door"]) in partitions[3].rows
        assert (o["door"], "Door") in partitions[4].rows


class TestEndToEndConsistency:
    def test_update_stream_then_queries(self, company_world):
        """ASRs stay query-correct through a mixed update stream."""
        db, path, o = company_world
        manager = ASRManager(db)
        asrs = [manager.create(path, extension) for extension in Extension]
        evaluator = QueryEvaluator(db)

        def backward_door():
            query = BackwardQuery(path, 0, path.n, target="Door")
            results = {
                evaluator.evaluate(query, asr).cells == evaluator.evaluate_unsupported(query).cells
                for asr in asrs
            }
            assert results == {True}

        backward_door()
        db.set_insert(o["parts_sausage"], o["door"])
        backward_door()
        db.delete(o["sec"])
        backward_door()
        db.set_attr(o["space"], "Manufactures", o["prods_truck"])
        backward_door()
        manager.check_consistency()
