"""Self-adjusting physical design: the recorder and the advisor loop."""

import logging
import threading

import pytest

from repro.asr import (
    ASRManager,
    AccessSupportRelation,
    AdvisorLoop,
    Decomposition,
    Extension,
    WorkloadRecorder,
)
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.errors import CostModelError, InjectedFault, ObjectBaseError, SimulatedCrash
from repro.faults import FaultInjector
from repro.gom import ObjectBase, PathExpression, Schema
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


def record_poor_fit(recorder) -> None:
    """A mix a RIGHT-complete ASR cannot serve: prefix queries (0, 2)."""
    recorder.record_query(0, 2, "bw", count=50)


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
        assert sum(recorder.queries.values()) == 4
        assert sum(recorder.updates.values()) == 2
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

    def test_attached_recorder_counts_subtype_updates(self):
        """An ``AttributeSet`` on an instance of a subtype of a step's
        domain updates that step — as maintenance sees it."""
        schema = Schema()
        schema.define_tuple("Maker", {"Name": "STRING"})
        schema.define_tuple("Part", {"Name": "STRING", "MadeBy": "Maker"})
        schema.define_tuple("Special", {"Grade": "INTEGER"}, supertypes=["Part"])
        schema.validate()
        db = ObjectBase(schema)
        path = PathExpression.parse(schema, "Part.MadeBy.Name")
        recorder = WorkloadRecorder(path)
        recorder.attach(db)
        special = db.new("Special", Name="Gear", Grade=1)
        db.set_attr(special, "MadeBy", db.new("Maker", Name="Acme"))
        db.set_attr(db.new("Part", Name="Door"), "MadeBy", db.new("Maker", Name="Zed"))
        assert recorder.updates[0] == 2

    def test_reset(self, world):
        generated, _manager = world
        recorder = WorkloadRecorder(generated.path)
        recorder.record_update(0)
        recorder.reset()
        assert recorder.total_operations == 0


class TestAdaptiveDesigner:
    """The loop's decisions on a real manager (``sweep(force=True)`` is
    the one-shot offline retune)."""

    def test_switches_away_from_poor_design(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        record_poor_fit(recorder)  # RIGHT cannot serve (0,2)
        recorder.record_update(0, count=2)
        loop = AdvisorLoop(manager, asr, recorder)
        assert loop.sweep(force=True) is True
        assert loop.asr.extension in (Extension.FULL, Extension.LEFT)
        assert manager.asrs == [loop.asr]
        manager.check_consistency()

    def test_keeps_good_design(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        recorder.record_query(1, 2, "fw", count=20)  # only full serves this
        loop = AdvisorLoop(manager, asr, recorder, threshold=3.0)
        assert loop.sweep(force=True) is False
        assert loop.asr is asr  # not replaced
        assert "pages/op" in loop.describe()["last_decision"]["decision"]

    def test_retuned_asr_stays_maintained(self, world):
        generated, manager = world
        db, path = generated.db, generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        for _ in range(30):
            recorder.record_query(0, 1, "bw")
        AdvisorLoop(manager, asr, recorder).sweep(force=True)
        owner = generated.layers[0][0]
        collection = db.attr(owner, "A")
        if collection:
            db.set_insert(collection, generated.layers[1][1])
        manager.check_consistency()

    def test_unregistered_asr_rejected(self, world):
        generated, manager = world
        orphan = AccessSupportRelation.build(
            generated.db, generated.path, Extension.FULL
        )
        recorder = WorkloadRecorder(generated.path)
        with pytest.raises(CostModelError):
            AdvisorLoop(manager, orphan, recorder)

    def test_threshold_validation(self, world):
        generated, manager = world
        asr = manager.create(generated.path, Extension.FULL)
        recorder = WorkloadRecorder(generated.path)
        with pytest.raises(CostModelError):
            AdvisorLoop(manager, asr, recorder, threshold=0.5)

    def test_stable_workload_does_not_oscillate(self, world):
        """Regression: sweeps over a stable workload must not keep
        requesting a switch.

        The current-design test used to compare the advisor's
        ``DesignChoice`` by identity; every sweep builds a fresh advisor,
        so the current design never looked current and the loop
        re-materialized the *same* design forever.
        """
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        record_poor_fit(recorder)
        recorder.record_update(0, count=2)
        loop = AdvisorLoop(manager, asr, recorder)
        assert loop.sweep(force=True)  # moves off the poor design once
        record_poor_fit(recorder)  # the applied retune reset the evidence
        recorder.record_update(0, count=2)
        assert not loop.sweep(force=True)
        assert not loop.sweep(force=True)
        assert loop.rejected == {"not-better": 2}

    def test_retune_bumps_epoch_exactly_once(self, world):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        record_poor_fit(recorder)
        loop = AdvisorLoop(manager, asr, recorder)
        epoch_before = manager.epoch
        assert loop.sweep(force=True)
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
        record_poor_fit(recorder)
        loop = AdvisorLoop(manager, asr, recorder)
        return generated, injector, manager, asr, loop

    def assert_rolled_back(self, generated, manager, asr, loop, epoch_before):
        assert manager.asrs == [asr]  # never dropped, never replaced
        assert loop.asr is asr
        assert manager.epoch == epoch_before
        manager.check_consistency()
        # The old design still maintains, and a retune still catches up:
        # the failed one left no catch-up region behind.
        db = generated.db
        collection = db.attr(generated.layers[0][0], "A")
        if collection:
            db.set_insert(collection, generated.layers[1][1])
        manager.check_consistency()
        assert loop.sweep(force=True) is True
        manager.check_consistency()

    def test_build_failure_rolls_back(self):
        generated, injector, manager, asr, loop = self.scenario()
        injector.fault_at("asr.retune.build", times=1)
        epoch_before = manager.epoch
        assert loop.sweep(force=True) is False
        assert loop.rejected == {"build-failed": 1}
        self.assert_rolled_back(generated, manager, asr, loop, epoch_before)

    def test_register_crash_rolls_back(self):
        generated, injector, manager, asr, loop = self.scenario()
        injector.crash_at("asr.retune.register")
        epoch_before = manager.epoch
        assert loop.sweep(force=True) is False
        assert loop.rejected == {"build-failed": 1}
        # The manager primitive itself propagates the crash.
        injector.crash_at("asr.retune.register")
        with pytest.raises(SimulatedCrash):
            manager.rematerialize(asr, Extension.FULL, asr.decomposition)
        injector.disarm()
        self.assert_rolled_back(generated, manager, asr, loop, epoch_before)

    def test_build_fault_propagates_from_the_manager(self):
        generated, injector, manager, asr, loop = self.scenario()
        injector.fault_at("asr.retune.build", times=1)
        epoch_before = manager.epoch
        with pytest.raises(InjectedFault):
            manager.rematerialize(asr, Extension.FULL, asr.decomposition)
        self.assert_rolled_back(generated, manager, asr, loop, epoch_before)


class TestOnlineRetune:
    def mutate_mid_build(self, generated, monkeypatch, mutate):
        """Run ``mutate()`` right after the replacement's bulk build."""
        real_build = AccessSupportRelation.build.__func__

        def build_then_mutate(cls, *args, **kwargs):
            replacement = real_build(cls, *args, **kwargs)
            # The replacement's rows are now frozen; this mutation is
            # visible only to the catch-up region.
            mutate()
            return replacement

        monkeypatch.setattr(
            AccessSupportRelation, "build", classmethod(build_then_mutate)
        )

    def test_update_landing_mid_build_is_caught_up(self, world, monkeypatch):
        """An update that lands after the replacement's bulk-build
        snapshot must be absorbed by the catch-up delta before the swap.
        """
        generated, manager = world
        db, path = generated.db, generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        recorder = WorkloadRecorder(path)
        record_poor_fit(recorder)
        loop = AdvisorLoop(manager, asr, recorder)
        collection = db.attr(generated.layers[0][0], "A")
        element = generated.layers[1][1]
        self.mutate_mid_build(
            generated, monkeypatch, lambda: db.set_insert(collection, element)
        )
        assert loop.sweep(force=True)
        monkeypatch.undo()
        assert loop.asr is not asr
        manager.check_consistency()  # replacement matches a fresh rebuild

    def test_one_rematerialization_per_asr_at_a_time(self, world, monkeypatch):
        generated, manager = world
        path = generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        design = (Extension.FULL, Decomposition.binary(path.m))

        def second():
            with pytest.raises(ObjectBaseError, match="already"):
                manager.rematerialize(asr, *design)

        self.mutate_mid_build(generated, monkeypatch, second)
        replacement = manager.rematerialize(asr, *design)
        monkeypatch.undo()
        assert manager.asrs == [replacement]
        with pytest.raises(ObjectBaseError, match="not registered"):
            manager.rematerialize(asr, *design)  # the old one is gone
        assert manager.asrs == [replacement]
        manager.check_consistency()

    def test_update_landing_in_a_batch_is_caught_up(self, world, monkeypatch):
        """``batch()`` defers maintenance, not the catch-up: its flush
        maintains only the registered (old) ASR."""
        generated, manager = world
        db, path = generated.db, generated.path
        asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
        layers = generated.layers

        def bulk_update():
            with manager.batch():
                for owner in layers[0][:6]:
                    db.set_attr(owner, "A", db.new_set("SET_T1", layers[1][:3]))

        self.mutate_mid_build(generated, monkeypatch, bulk_update)
        replacement = manager.rematerialize(
            asr, Extension.FULL, Decomposition.binary(path.m)
        )
        monkeypatch.undo()
        assert manager.asrs == [replacement]
        manager.check_consistency()


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
        loop = AdvisorLoop(manager, asr, recorder)
        with caplog.at_level(logging.WARNING, logger="repro.asr"):
            loop.recommend()
            loop.recommend()
            for level in range(path.n):
                assert manager.costs.predict_update(level, asr) is not None
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
        assert sum(recorder.queries.values()) == (threads // 2) * per_thread
        assert sum(recorder.updates.values()) == (threads // 2) * per_thread
