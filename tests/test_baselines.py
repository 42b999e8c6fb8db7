"""The GemStone / Orion baseline indexes and the subsumption claims."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.baselines import NestedAttributeIndex, gemstone_index_path
from repro.errors import PathError
from repro.gom import PathExpression
from repro.gom.traversal import origins_reaching


class TestGemStoneIndexPath:
    def test_builds_on_linear_path(self, robot_world):
        db, path, o = robot_world
        index = gemstone_index_path(db, path)
        assert index.extension is Extension.CANONICAL
        assert index.decomposition == Decomposition.binary(path.m)
        assert index.tuple_count == 3  # the three complete robot paths

    def test_rejects_collection_valued_paths(self, company_world):
        db, path, _o = company_world
        with pytest.raises(PathError, match="single-valued"):
            gemstone_index_path(db, path)

    def test_answers_query1(self, robot_world):
        from repro.query import BackwardQuery, QueryEvaluator

        db, path, o = robot_world
        index = gemstone_index_path(db, path)
        evaluator = QueryEvaluator(db)
        query = BackwardQuery(path, 0, path.n, target="Utopia")
        assert evaluator.evaluate_supported(query, index).cells == {
            o["r2d2"], o["x4d5"], o["robi"],
        }

    def test_cannot_answer_partial_ranges(self, robot_world):
        db, path, _o = robot_world
        index = gemstone_index_path(db, path)
        assert not index.supports_query(1, path.n)
        assert not index.supports_query(0, 2)


class TestNestedAttributeIndex:
    def test_build_and_lookup(self, company_world):
        db, path, o = company_world
        index = NestedAttributeIndex.build(db, path)
        assert index.lookup("Door") == {o["auto"], o["truck"]}
        assert index.lookup("Pepper") == set()  # sausage is not a Division
        assert index.lookup("Ghost") == set()

    def test_requires_atomic_terminal(self, company_world):
        db, path, _o = company_world
        object_path = PathExpression.parse(db.schema, "Division.Manufactures")
        with pytest.raises(PathError, match="atomic"):
            NestedAttributeIndex(object_path)

    def test_only_whole_path_supported(self, company_world):
        db, path, _o = company_world
        index = NestedAttributeIndex.build(db, path)
        assert index.supports_query(0, path.n)
        assert not index.supports_query(1, path.n)
        assert not index.supports_query(0, 1)

    def test_maintained_by_manager(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        index = NestedAttributeIndex.build(db, path)
        manager.register(index)
        db.set_insert(o["parts_sec"], o["pepper"])
        index.consistency_check(db)
        assert index.lookup("Pepper") == {o["auto"], o["truck"]}
        db.set_remove(o["parts_sec"], o["door"])
        index.consistency_check(db)
        assert index.lookup("Door") == set()
        db.delete(o["sec"])
        index.consistency_check(db)

    def test_matches_traversal_after_random_stream(self, small_chain):
        import random

        db, path = small_chain.db, small_chain.path
        # Give terminals a value attribute path: the chain terminal T3 has
        # a Payload attribute; extend the path to reach it.
        value_path = PathExpression(db.schema, "T0", ("A", "A", "A", "Payload"))
        for index_t3, oid in enumerate(small_chain.layers[3]):
            db.set_attr(oid, "Payload", index_t3 % 7)
        manager = ASRManager(db)
        index = NestedAttributeIndex.build(db, value_path)
        manager.register(index)
        rng = random.Random(79)
        for _ in range(40):
            owner = rng.choice(small_chain.layers[2])
            collection = db.attr(owner, "A")
            member = rng.choice(small_chain.layers[3])
            if collection and member in db:
                if rng.random() < 0.5:
                    db.set_insert(collection, member)
                else:
                    db.set_remove(collection, member)
        index.consistency_check(db)
        for payload in range(7):
            assert index.lookup(payload) == origins_reaching(
                db, value_path, payload
            )

    def test_index_scans_read_what_the_row_at_a_time_loops_read(self, small_chain):
        from repro.asr.asr import cell_key
        from tests.storage.reference_walker import RecordingBuffer, reference_range

        db = small_chain.db
        value_path = PathExpression(db.schema, "T0", ("A", "A", "A", "Payload"))
        for index_t3, oid in enumerate(small_chain.layers[3]):
            db.set_attr(oid, "Payload", index_t3 % 5)
        # 48-byte pages: three pairs per leaf, so every value's anchors
        # span leaves.
        index = NestedAttributeIndex(value_path, page_size=48, oid_size=8)
        index.rebuild(db)
        assert index.total_pages > 10

        def reference(lo, hi, buffer, prefix=None):
            anchors = set()
            for key, (_value, anchor) in reference_range(index.tree, lo, hi, buffer):
                if prefix is not None and key[0] != prefix:
                    break
                anchors.add(anchor)
            return anchors

        for value in (-1, 0, 2, 4, 5, "absent"):
            ours, theirs = RecordingBuffer(), RecordingBuffer()
            prefix = cell_key(value)
            assert index.lookup(value, ours) == reference(
                (prefix, ()), None, theirs, prefix
            )
            assert ours.touched == theirs.touched

    def test_storage_statistics(self, company_world):
        db, path, _o = company_world
        index = NestedAttributeIndex.build(db, path)
        # Two divisions reach "Door": two (value, anchor) pairs.
        assert index.pair_count == 2
        assert index.pair_count == len(
            {(row[-1], row[0]) for row in index.canonical.recompose().rows}
        )
        assert index.total_bytes == index.pair_count * 16
        assert index.total_pages >= 1


class TestManagerIntegration:
    def test_find_matches_nested_index(self, company_world):
        db, path, _o = company_world
        manager = ASRManager(db)
        index = NestedAttributeIndex.build(db, path)
        manager.register(index)
        assert manager.find(path, Extension.CANONICAL) == [index]
