"""Recorded query history feeds the advisor loop."""

import pytest

from repro.asr import ASRManager, AdvisorLoop, Decomposition, Extension
from repro.asr.adaptive import WorkloadRecorder
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.query import BackwardQuery, Planner, QueryEvaluator
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
    manager = ASRManager(generated.db, costs=MeasuredCosts(generated.db, SIZES))
    planner = Planner(manager)
    evaluator = QueryEvaluator(generated.db, generated.store)
    return generated, manager, planner, evaluator


class TestRecording:
    def test_end_to_end_self_tuning(self, world):
        """Execute a workload through the planner, then re-tune from it."""
        generated, manager, planner, evaluator = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(40):
            query = BackwardQuery(path, 0, 2, target=generated.layers[2][0])
            planner.execute(query, evaluator)
            recorder.record_query(query.i, query.j, query.kind)
        loop = AdvisorLoop(manager, asr, recorder)
        # Make P_up well-defined even with zero recorded updates.
        recorder.record_update(0)
        assert loop.sweep(force=True)
        assert loop.asr.extension in (Extension.FULL, Extension.LEFT)
        manager.check_consistency()
