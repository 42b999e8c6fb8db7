"""A recording planner: query history feeds the adaptive designer."""

import pytest

from repro.asr import ASRManager, AdaptiveDesigner, Decomposition, Extension
from repro.asr.adaptive import PathRecorders
from repro.costmodel import ApplicationProfile
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator
from repro.telemetry import MeasuredCosts
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(25, 75, 225, 450),
    d=(22, 65, 200),
    fan=(3, 3, 2),
    size=(400, 300, 200, 100),
)

SIZES = {"T0": 400, "T1": 300, "T2": 200, "T3": 100}


@pytest.fixture()
def world():
    generated = ChainGenerator(seed=97).generate(PROFILE)
    manager = ASRManager(generated.db)
    planner = Planner(
        manager,
        costs=MeasuredCosts(generated.db, SIZES),
        recorder=PathRecorders(generated.db),
    )
    evaluator = QueryEvaluator(generated.db, generated.store)
    return generated, manager, planner, evaluator


class TestRecording:
    def test_executed_queries_are_counted(self, world):
        generated, manager, planner, evaluator = world
        path = generated.path
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        for _ in range(3):
            planner.execute(
                BackwardQuery(path, 0, path.n, target=generated.layers[-1][0]),
                evaluator,
            )
        planner.execute(
            ForwardQuery(path, 0, 1, start=generated.layers[0][0]), evaluator
        )
        recorder = planner.recorder.for_path(path)
        assert recorder.queries[(0, path.n, "bw")] == 3
        assert recorder.queries[(0, 1, "fw")] == 1

    def test_updates_counted_via_attachment(self, world):
        generated, _manager, planner, _evaluator = world
        db, path = generated.db, generated.path
        planner.recorder.for_path(path)  # attaches the recorder
        owner = generated.layers[0][0]
        collection = db.attr(owner, "A")
        if collection:
            db.set_insert(collection, generated.layers[1][0])
            assert planner.recorder.for_path(path).total_updates >= 1

    def test_end_to_end_self_tuning(self, world):
        """Execute a workload through the planner, then re-tune from it."""
        generated, manager, planner, evaluator = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        for _ in range(40):
            planner.execute(
                BackwardQuery(path, 0, 2, target=generated.layers[2][0]),
                evaluator,
            )
        designer = AdaptiveDesigner(
            manager,
            asr,
            planner.recorder.for_path(path),
            MeasuredCosts(generated.db, SIZES),
        )
        # Make P_up well-defined even with zero recorded updates.
        planner.recorder.for_path(path).record_update(0)
        decision = designer.retune()
        assert decision.retuned
        assert designer.asr.extension in (Extension.FULL, Extension.LEFT)
        manager.check_consistency()

    def test_one_recorder_per_path(self, world):
        generated, _manager, planner, _evaluator = world
        path = generated.path
        assert planner.recorder.for_path(path) is planner.recorder.for_path(path)
