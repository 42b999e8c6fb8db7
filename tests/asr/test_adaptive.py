"""Self-adjusting physical design: recorder + adaptive designer."""

import logging
import threading

import pytest

from repro.asr import (
    ASRManager,
    AccessSupportRelation,
    AdaptiveDesigner,
    Decomposition,
    Extension,
    WorkloadRecorder,
)
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.errors import CostModelError, InjectedFault, SimulatedCrash
from repro.faults import FaultInjector
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(30, 60, 120, 240),
    d=(27, 48, 96),
    fan=(2, 2, 2),
    size=(400, 300, 200, 100),
)

SIZES = {"T0": 400, "T1": 300, "T2": 200, "T3": 100}


def measured(generated) -> MeasuredCosts:
    return MeasuredCosts(generated.db, SIZES)


@pytest.fixture()
def world():
    generated = ChainGenerator(seed=19).generate(PROFILE)
    manager = ASRManager(generated.db, costs=measured(generated))
    return generated, manager


class TestWorkloadRecorder:
    def test_counts_queries_and_updates(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        recorder.record_query(0, 3, "bw", count=3)
        recorder.record_query(0, 1, "fw")
        recorder.record_update(1, count=2)
        assert recorder.total_queries == 4
        assert recorder.total_updates == 2
        assert recorder.total_operations == 6

    def test_to_mix_weights(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        recorder.record_query(0, 3, "bw", count=3)
        recorder.record_query(0, 2, "bw", count=1)
        recorder.record_update(0, count=4)
        mix, p_up = recorder.to_mix()
        assert p_up == pytest.approx(0.5)
        weights = {str(spec): w for w, spec in mix.queries}
        assert weights["Q0,3(bw)"] == pytest.approx(0.75)
        assert weights["Q0,2(bw)"] == pytest.approx(0.25)

    def test_empty_log_rejected(self, world):
        generated, _manager = world
        with pytest.raises(CostModelError):
            WorkloadRecorder(generated.path).to_mix()

    def test_validation(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        with pytest.raises(CostModelError):
            recorder.record_query(2, 2, "bw")
        with pytest.raises(CostModelError):
            recorder.record_query(0, 1, "sideways")
        with pytest.raises(CostModelError):
            recorder.record_update(3)

    def test_attached_recorder_counts_update_events(self, world):
        generated, _manager = world
        db = generated.db
        recorder = WorkloadRecorder(generated.path)
        recorder.attach(db)
        owner = generated.layers[0][0]
        collection = db.attr(owner, "A")
        if collection:
            db.set_insert(collection, generated.layers[1][0])
            assert recorder.updates[0] >= 1

    def test_reset(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        recorder.record_update(0)
        recorder.reset()
        assert recorder.total_operations == 0


class TestAdaptiveDesigner:
    def test_switches_away_from_poor_design(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(50):
            recorder.record_query(0, 2, "bw")  # RIGHT cannot serve (0,2)
        recorder.record_update(0, count=2)
        designer = AdaptiveDesigner(manager, asr, recorder)
        decision = designer.retune()
        assert decision.retuned
        assert designer.asr.extension in (Extension.FULL, Extension.LEFT)
        manager.check_consistency()

    def test_keeps_good_design(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        recorder.record_query(1, 2, "fw", count=20)  # only full serves this
        designer = AdaptiveDesigner(manager, asr, recorder, improvement_threshold=3.0)
        decision = designer.retune()
        assert designer.asr is asr  # not replaced
        assert "pages/op" in decision.describe()

    def test_retuned_asr_stays_maintained(self, world):
        generated, manager = world
        db, path = generated.db, generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(30):
            recorder.record_query(0, 1, "bw")
        designer = AdaptiveDesigner(manager, asr, recorder)
        designer.retune()
        owner = generated.layers[0][0]
        collection = db.attr(owner, "A")
        if collection:
            db.set_insert(collection, generated.layers[1][1])
        manager.check_consistency()

    def test_unregistered_asr_rejected(self, world):
        from repro.asr import AccessSupportRelation

        generated, manager = world
        orphan = AccessSupportRelation.build(
            generated.db, generated.path, Extension.FULL
        )
        recorder = WorkloadRecorder(generated.path)
        with pytest.raises(CostModelError):
            AdaptiveDesigner(manager, orphan, recorder)

    def test_threshold_validation(self, world):
        generated, manager = world
        asr = manager.create(generated.path, Extension.FULL)
        recorder = WorkloadRecorder(generated.path)
        with pytest.raises(CostModelError):
            AdaptiveDesigner(manager, asr, recorder, improvement_threshold=0.5)

    def test_stable_workload_does_not_oscillate(self, world):
        """Regression: two consecutive ``recommend()`` calls on a stable
        workload must not keep requesting a switch.

        ``_is_current`` used to compare the advisor's ``DesignChoice``
        by identity; every sweep builds a fresh advisor, so the current
        design never looked current and the designer re-materialized
        the *same* design forever.
        """
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(50):
            recorder.record_query(0, 2, "bw")
        recorder.record_update(0, count=2)
        designer = AdaptiveDesigner(manager, asr, recorder)
        assert designer.retune().retuned  # moves off the poor design once
        first = designer.recommend()
        second = designer.recommend()
        assert not first.retuned
        assert not second.retuned

    def test_retune_bumps_epoch_exactly_once(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(50):
            recorder.record_query(0, 2, "bw")
        designer = AdaptiveDesigner(manager, asr, recorder)
        epoch_before = manager.epoch
        assert designer.retune().retuned
        assert manager.epoch == epoch_before + 1
        assert len(manager.asrs) == 1


class TestRetuneRollback:
    """A retune that dies at any point leaves the old design serving."""

    def scenario(self):
        generated = ChainGenerator(seed=19).generate(PROFILE)
        injector = FaultInjector(seed=0)
        manager = ASRManager(
            generated.db, fault_injector=injector, costs=measured(generated)
        )
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(50):
            recorder.record_query(0, 2, "bw")
        designer = AdaptiveDesigner(manager, asr, recorder)
        return generated, injector, manager, asr, designer

    def assert_rolled_back(self, manager, asr, designer, epoch_before):
        assert manager.asrs == [asr]  # never dropped, never replaced
        assert designer.asr is asr
        assert manager.epoch == epoch_before
        manager.check_consistency()
        # The old design still maintains: the db event hook chain (the
        # catch-up observer must be unsubscribed) is intact.
        decision = designer.retune()
        assert decision.retuned
        manager.check_consistency()

    def test_build_failure_rolls_back(self):
        generated, injector, manager, asr, designer = self.scenario()
        injector.fault_at("asr.retune.build", times=1)
        epoch_before = manager.epoch
        with pytest.raises(InjectedFault):
            designer.retune()
        self.assert_rolled_back(manager, asr, designer, epoch_before)

    def test_register_crash_rolls_back(self):
        generated, injector, manager, asr, designer = self.scenario()
        injector.crash_at("asr.retune.register")
        epoch_before = manager.epoch
        with pytest.raises(SimulatedCrash):
            designer.retune()
        injector.disarm()
        self.assert_rolled_back(manager, asr, designer, epoch_before)


class TestOnlineRetune:
    def test_update_landing_mid_build_is_caught_up(self, world, monkeypatch):
        """An update that lands after the replacement's bulk-build
        snapshot must be absorbed by the catch-up delta before the swap.
        """
        generated, manager = world
        db, path = generated.db, generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(50):
            recorder.record_query(0, 2, "bw")
        designer = AdaptiveDesigner(manager, asr, recorder)

        real_build = AccessSupportRelation.build.__func__
        owner = generated.layers[0][0]
        collection = db.attr(owner, "A")
        element = generated.layers[1][1]

        def build_then_mutate(cls, *args, **kwargs):
            replacement = real_build(cls, *args, **kwargs)
            # The replacement's rows are now frozen; this mutation is
            # visible only to the catch-up observer.
            db.set_insert(collection, element)
            return replacement

        monkeypatch.setattr(
            AccessSupportRelation, "build", classmethod(build_then_mutate)
        )
        decision = designer.retune()
        monkeypatch.undo()
        assert decision.retuned
        assert designer.asr is not asr
        manager.check_consistency()  # replacement matches a fresh rebuild


class TestTypeBorders:
    def test_collapsing_borders_are_logged(self, world, caplog):
        """A set-valued step's two columns share a type index; when both
        are decomposition borders the cost model prices a coarser design
        — loudly, not silently."""
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        recorder.record_query(0, 2, "bw", count=20)
        designer = AdaptiveDesigner(manager, asr, recorder)
        with caplog.at_level(logging.WARNING, logger="repro.asr"):
            designer.recommend()
            designer.recommend()
            for level in range(path.n):
                assert designer.costs.predict_update(level, asr) is not None
        borders = asr.type_decomposition.borders
        assert len(borders) == len(set(borders)) < len(asr.decomposition.borders)
        # ...once per ASR, however often the design is re-costed or priced.
        assert sum("coarser" in record.message for record in caplog.records) == 1


class TestRecorderThreadSafety:
    def test_concurrent_recording_loses_nothing(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        threads, per_thread = 8, 500
        start = threading.Barrier(threads)

        def hammer(k):
            start.wait()
            for _ in range(per_thread):
                if k % 2:
                    recorder.record_query(0, 2, "bw")
                else:
                    recorder.record_update(1)

        workers = [
            threading.Thread(target=hammer, args=(k,)) for k in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert recorder.total_operations == threads * per_thread
        assert recorder.total_queries == (threads // 2) * per_thread
        assert recorder.total_updates == (threads // 2) * per_thread
