"""Section 5.4 over two private ASRs on the induced decompositions.

Sharing is analysis only: each path keeps its own ASR, decomposed so
the common sub-chain is one partition.  These tests check what a shared
store would rely on — the two segment partitions hold the same rows, at
build time and after every maintained update (under FULL, up to one-cell
rows a path's own prefix contributes) — and what it would save (that
partition's Eq. 15 size).
"""

import random

import pytest

from repro.asr import (
    AccessSupportRelation,
    ASRManager,
    Extension,
    best_shared_design,
    shareable_segments,
)
from repro.gom import NULL, ObjectBase, PathExpression, Schema
from repro.query import BackwardQuery, QueryEvaluator


@pytest.fixture()
def world():
    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple(
        "TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"}
    )
    schema.define_tuple("ARM", {"MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_tuple("WORKCELL", {"SpareTool": "TOOL"})
    schema.validate()
    db = ObjectBase(schema)
    rng = random.Random(8)
    makers = [
        db.new("MANUFACTURER", Name=f"M{i}", Location=rng.choice(["Utopia", "Sirius"]))
        for i in range(4)
    ]
    tools = [
        db.new("TOOL", Function=f"F{i}", ManufacturedBy=rng.choice(makers))
        for i in range(10)
    ]
    arms = [db.new("ARM", MountedTool=rng.choice(tools)) for _ in range(6)]
    for i in range(5):
        db.new("ROBOT", Name=f"R{i}", Arm=rng.choice(arms))
    for i in range(3):
        db.new("WORKCELL", SpareTool=rng.choice(tools))
    path_a = PathExpression.parse(
        schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location"
    )
    path_b = PathExpression.parse(schema, "WORKCELL.SpareTool.ManufacturedBy.Location")
    return db, path_a, path_b, makers, tools, arms


def private_pair(db, path_a, path_b, extension=Extension.FULL):
    """Both ASRs on the induced decompositions, plus their segment partitions."""
    segment = best_shared_design(path_a, path_b)
    asr_a = AccessSupportRelation.build(db, path_a, extension, segment.decomposition_a())
    asr_b = AccessSupportRelation.build(db, path_b, extension, segment.decomposition_b())
    return asr_a, asr_b, segment_partitions(segment, asr_a, asr_b)


def segment_partitions(segment, asr_a, asr_b):
    return (
        asr_a.partition_at(asr_a.path.column_of(segment.start_a)),
        asr_b.partition_at(asr_b.path.column_of(segment.start_b)),
    )


def same_relation(partition_a, partition_b) -> bool:
    return set(partition_a.rows()) == set(partition_b.rows())


class TestBuild:
    def test_bytes_saved_positive(self, world):
        db, path_a, path_b, *_ = world
        _asr_a, _asr_b, (partition_a, partition_b) = private_pair(db, path_a, path_b)
        assert same_relation(partition_a, partition_b)
        # What one shared store would save: one copy's Eq. 15 size.
        assert partition_a.byte_size == partition_b.byte_size > 0

    def test_illegal_extension_rejected(self, world):
        db, path_a, path_b, *_ = world
        segment = best_shared_design(path_a, path_b)
        assert Extension.CANONICAL not in segment.legal_extensions()
        assert Extension.LEFT not in segment.legal_extensions()
        # Why: a canonical partition holds only the hops of complete
        # paths, and the two paths complete from different origins.
        _asr_a, _asr_b, (partition_a, partition_b) = private_pair(
            db, path_a, path_b, Extension.CANONICAL
        )
        assert not same_relation(partition_a, partition_b)

    def test_right_legal_for_common_suffix(self, world):
        db, path_a, path_b, *_ = world
        segment = best_shared_design(path_a, path_b)
        assert Extension.RIGHT in segment.legal_extensions()
        asr_a, asr_b, (partition_a, partition_b) = private_pair(
            db, path_a, path_b, Extension.RIGHT
        )
        assert same_relation(partition_a, partition_b)
        asr_a.consistency_check(db)
        asr_b.consistency_check(db)

    def test_disjoint_paths_rejected(self, world):
        db, path_a, _path_b, *_ = world
        other = PathExpression.parse(db.schema, "ROBOT.Name")
        assert shareable_segments(path_a, other) == []
        assert best_shared_design(path_a, other) is None


class TestQueriesAndMaintenance:
    def test_queries_through_both_views(self, world):
        db, path_a, path_b, *_ = world
        asr_a, asr_b, _partitions = private_pair(db, path_a, path_b)
        evaluator = QueryEvaluator(db)
        for path, asr in ((path_a, asr_a), (path_b, asr_b)):
            for target in ("Utopia", "Sirius"):
                query = BackwardQuery(path, 0, path.n, target=target)
                assert (
                    evaluator.evaluate_supported(query, asr).cells
                    == evaluator.evaluate_unsupported(query).cells
                )

    def test_maintained_under_update_stream(self, world):
        db, path_a, path_b, makers, tools, arms = world
        segment = best_shared_design(path_a, path_b)
        manager = ASRManager(db)
        full_a, full_b, _partitions = private_pair(db, path_a, path_b)
        right_a, right_b, _partitions = private_pair(
            db, path_a, path_b, Extension.RIGHT
        )
        for asr in (full_a, full_b, right_a, right_b):
            manager.register(asr)
        rng = random.Random(9)
        per_path_rows = set()
        for step in range(80):
            if step == 40:
                # The swap a retune goes through leaves the other path's
                # partitions alone: each ASR owns its own.
                full_a = manager.rematerialize(
                    full_a, Extension.FULL, segment.decomposition_a()
                )
            roll = rng.random()
            if roll < 0.35:
                db.set_attr(rng.choice(tools), "ManufacturedBy", rng.choice(makers))
            elif roll < 0.5:
                db.set_attr(rng.choice(tools), "ManufacturedBy", NULL)
            elif roll < 0.75:
                db.set_attr(
                    rng.choice(makers), "Location", rng.choice(["Utopia", "Earth"])
                )
            else:
                db.set_attr(rng.choice(arms), "MountedTool", rng.choice(tools))
            manager.check_consistency()
            # Section 5.4's premise, under maintenance.  RIGHT keeps only
            # rows reaching t_n, so the suffix partitions stay one relation.
            assert same_relation(*segment_partitions(segment, right_a, right_b))
            # FULL agrees on every row carrying a segment hop.  A tool
            # whose ManufacturedBy is NULL still enters a path's segment
            # partition as the one-cell row (tool, NULL, NULL) when that
            # path's own prefix reaches it, so those rows are per path.
            partition_a, partition_b = segment_partitions(segment, full_a, full_b)
            for row in set(partition_a.rows()) ^ set(partition_b.rows()):
                assert row[0] is not NULL
                assert all(cell is NULL for cell in row[1:])
                per_path_rows.add(row)
        # The stream does reach that case: FULL is not exactly one relation.
        assert per_path_rows
        evaluator = QueryEvaluator(db)
        for path, asr in ((path_a, full_a), (path_b, full_b)):
            query = BackwardQuery(path, 0, path.n, target="Sirius")
            assert (
                evaluator.evaluate_supported(query, asr).cells
                == evaluator.evaluate_unsupported(query).cells
            )
