"""End-to-end scenario on a longer (n = 5) generated chain.

Exercises everything at once: generation, all four extensions under
several decompositions, every admissible query range, value-range
queries, an update stream with deletions, persistence round-trip, and
the advisor loop — the kind of composite workload a downstream user
would actually run.
"""

import random

import pytest

from repro.asr import (
    ASRManager,
    AdvisorLoop,
    Decomposition,
    Extension,
    WorkloadRecorder,
)
from repro.costmodel import ApplicationProfile, MeasuredCosts, profile_from_database
from repro.gom.serialization import dump_object_base, load_object_base
from repro.gom.traversal import origins_reaching, reachable_terminals
from repro.query import BackwardQuery, ForwardQuery, QueryEvaluator
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(15, 30, 60, 90, 120, 150),
    d=(13, 24, 48, 70, 100),
    fan=(2, 2, 1, 2, 2),  # includes one single-valued step
    size=(500, 400, 300, 300, 200, 100),
)


@pytest.fixture(scope="module")
def world():
    generated = ChainGenerator(seed=47).generate(PROFILE)
    sizes = {f"T{i}": int(PROFILE.size[i]) for i in range(6)}
    manager = ASRManager(generated.db, costs=MeasuredCosts(generated.db, sizes))
    decs = [
        Decomposition.binary(generated.path.m),
        Decomposition.none(generated.path.m),
    ]
    asrs = [
        manager.create(generated.path, extension, dec)
        for extension in Extension
        for dec in decs
    ]
    return generated, manager, asrs


class TestLongChain:
    def test_path_shape(self, world):
        generated, _manager, _asrs = world
        assert generated.path.n == 5
        assert generated.path.k == 4  # four set-valued steps
        assert generated.path.m == 9

    def test_all_admissible_query_ranges(self, world):
        generated, _manager, asrs = world
        db, path = generated.db, generated.path
        evaluator = QueryEvaluator(db, generated.store)
        ranges = [(i, j) for i in range(5) for j in range(i + 1, 6)]
        for i, j in ranges:
            start = generated.layers[i][0]
            fq = ForwardQuery(path, i, j, start=start)
            forward_oracle = reachable_terminals(db, path, start, i, j)
            target = generated.layers[j][0]
            bq = BackwardQuery(path, i, j, target=target)
            backward_oracle = origins_reaching(db, path, target, i, j)
            assert evaluator.evaluate_unsupported(fq).cells == forward_oracle
            assert evaluator.evaluate_unsupported(bq).cells == backward_oracle
            for asr in asrs:
                if asr.supports_query(i, j):
                    assert (
                        evaluator.evaluate_supported(fq, asr).cells == forward_oracle
                    ), (asr.extension, i, j)
                    assert (
                        evaluator.evaluate_supported(bq, asr).cells == backward_oracle
                    ), (asr.extension, i, j)

    def test_update_stream_with_deletions(self, world):
        generated, manager, _asrs = world
        db = generated.db
        rng = random.Random(51)
        layers = generated.layers
        for _ in range(60):
            roll = rng.random()
            level = rng.randrange(5)
            owner = rng.choice(layers[level])
            if owner not in db:
                continue
            if roll < 0.5:
                value = db.attr(owner, "A")
                target = rng.choice(layers[level + 1])
                if value and target in db and db.schema.lookup(
                    db.type_of(value)
                ).is_set():
                    db.set_insert(value, target)
            elif roll < 0.9:
                target = rng.choice(layers[level + 1])
                if target not in db:
                    continue
                step = generated.path.steps[level]
                if step.is_set_occurrence:
                    db.set_attr(owner, "A", db.new_set(f"SET_T{level + 1}", [target]))
                else:
                    db.set_attr(owner, "A", target)
            else:
                victim = rng.choice(layers[rng.randrange(1, 5)])
                if victim in db:
                    db.delete(victim)
        manager.check_consistency()

    def test_persistence_round_trip(self, world):
        generated, manager, _asrs = world
        data = dump_object_base(generated.db, manager.asrs[:2])
        loaded_db, loaded_asrs = load_object_base(data)
        assert len(loaded_db) == len(generated.db)
        for original, restored in zip(manager.asrs[:2], loaded_asrs):
            assert restored.extension is original.extension
            assert (
                restored.recompose().rows == original.recompose().rows
            )

    def test_adaptive_on_long_chain(self, world):
        generated, manager, _asrs = world
        asr = manager.create(
            generated.path, Extension.CANONICAL, Decomposition.binary(generated.path.m)
        )
        recorder = WorkloadRecorder(generated.path)
        recorder.record_query(0, 3, "bw", count=40)  # canonical cannot serve
        recorder.record_update(4, count=1)
        loop = AdvisorLoop(manager, asr, recorder)
        assert loop.sweep(force=True)
        assert loop.asr.extension in (Extension.FULL, Extension.LEFT)
        manager.check_consistency()

    def test_measured_profile_well_formed(self, world):
        generated, _manager, _asrs = world
        measured = profile_from_database(
            generated.db, generated.path, default_size=120
        )
        assert measured.n == 5
        for i in range(5):
            assert 0 <= measured.d[i] <= measured.c[i]
