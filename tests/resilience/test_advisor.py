"""The advisor loop's gates, dry-run and rollback accounting.

Decisions are scripted by patching ``loop.recommend`` (it returns
``(current cost, best design)``); the retune itself is the manager's
real :meth:`~repro.asr.manager.ASRManager.rematerialize` on a small
chain world, patched only where a build must fail.
"""

import time

import pytest

from repro.asr import AdvisorLoop, ASRManager, Decomposition, Extension, WorkloadRecorder
from repro.costmodel.advisor import DesignChoice
from repro.errors import CostModelError
from repro.telemetry import MetricsRegistry
from tests.telemetry.test_registry import gauge

#: The scripted winner's type borders (the world's path has n = 3).
BORDERS = (0, 1, 3)


def choice(extension=Extension.LEFT, cost=10.0):
    decomposition = Decomposition(BORDERS) if extension is not None else None
    return DesignChoice(extension, decomposition, cost, 0.5, 0.0)


def switch_decision(gain=2.0, best_cost=10.0):
    return best_cost * gain, choice(cost=best_cost)


@pytest.fixture()
def world(small_chain):
    manager = ASRManager(small_chain.db)
    asr = manager.create(small_chain.path, Extension.FULL)
    recorder = WorkloadRecorder(small_chain.path)
    recorder.record_query(0, small_chain.path.n, "bw", count=1000)
    return manager, asr, recorder


def scripted(world, decisions, monkeypatch, **kwargs) -> AdvisorLoop:
    """A loop whose recommend() pops the next scripted decision."""
    manager, asr, recorder = world
    loop = AdvisorLoop(manager, asr, recorder, **kwargs)
    script = list(decisions)

    def recommend():
        decision = script.pop(0)
        if isinstance(decision, Exception):
            raise decision
        return decision

    monkeypatch.setattr(loop, "recommend", recommend)
    loop.script = script
    return loop


def count_retunes(manager, monkeypatch) -> list:
    """Record every rematerialize call while still running the real one."""
    calls = []
    real = manager.rematerialize

    def rematerialize(asr, extension, decomposition):
        calls.append((extension, decomposition))
        return real(asr, extension, decomposition)

    monkeypatch.setattr(manager, "rematerialize", rematerialize)
    return calls


def refill(recorder):
    recorder.record_query(0, recorder.path.n, "bw", count=1000)


class TestGates:
    def test_evidence_floor(self, world, monkeypatch):
        manager, asr, recorder = world
        recorder.reset()
        recorder.record_query(0, 1, "fw", count=3)
        loop = scripted(world, [switch_decision()], monkeypatch, min_ops=32)
        assert loop.sweep() is False
        assert loop.rejected == {"insufficient-ops": 1}
        assert len(loop.script) == 1  # recommend never called

    def test_force_skips_evidence_floor(self, world, monkeypatch):
        _manager, _asr, recorder = world
        recorder.reset()
        loop = scripted(world, [switch_decision()], monkeypatch, min_ops=32)
        assert loop.sweep(force=True) is True

    def test_empty_recorder_maps_to_insufficient_ops(self, world):
        manager, asr, recorder = world
        recorder.reset()
        loop = AdvisorLoop(manager, asr, recorder)
        assert loop.sweep(force=True) is False  # to_mix() has nothing
        assert loop.rejected == {"insufficient-ops": 1}

    def test_recommend_crash_is_counted_not_raised(self, world, monkeypatch):
        loop = scripted(world, [RuntimeError("boom")], monkeypatch)
        assert loop.sweep() is False
        assert loop.rejected == {"recommend-failed": 1}

    def test_baseline_refused(self, world, monkeypatch):
        loop = scripted(world, [(20.0, choice(None, 2.0))], monkeypatch)
        assert loop.sweep() is False
        assert loop.rejected == {"baseline": 1}

    def test_not_better_kept(self, world, monkeypatch):
        manager, asr, _recorder = world
        current = DesignChoice(asr.extension, asr.type_decomposition, 1.0, 0.1, 0.0)
        loop = scripted(world, [(10.0, current)], monkeypatch)
        assert loop.sweep() is False  # the winner is the live design
        assert loop.rejected == {"not-better": 1}
        assert manager.asrs == [asr]

    def test_hysteresis_threshold(self, world, monkeypatch):
        """A gain that does not clear the threshold is ``not-better``."""
        loop = scripted(world, [(11.0, choice(cost=10.0))], monkeypatch, threshold=1.2)
        assert loop.sweep() is False
        assert loop.rejected == {"not-better": 1}
        assert loop.describe()["threshold"] == 1.2

    def test_cooldown_paces_retunes(self, world, monkeypatch):
        manager, _asr, recorder = world
        clock = {"now": 100.0}
        calls = count_retunes(manager, monkeypatch)
        loop = scripted(
            world, [switch_decision(), (20.0, choice(Extension.RIGHT))], monkeypatch,
            interval=5.0, time_fn=lambda: clock["now"],
        )
        assert loop.describe()["cooldown_s"] == 10.0  # always two intervals
        assert loop.sweep() is True
        refill(recorder)  # re-earn the evidence floor
        clock["now"] += 5.0  # inside the cooldown window
        assert loop.sweep() is False
        assert loop.rejected == {"cooldown": 1}
        assert len(calls) == 1

    def test_cooldown_expires(self, world, monkeypatch):
        manager, _asr, recorder = world
        clock = {"now": 100.0}
        calls = count_retunes(manager, monkeypatch)
        loop = scripted(
            world, [switch_decision(), (20.0, choice(Extension.RIGHT))], monkeypatch,
            interval=5.0, time_fn=lambda: clock["now"],
        )
        assert loop.sweep() is True
        refill(recorder)
        clock["now"] += 11.0
        assert loop.sweep() is True
        assert len(calls) == 2

    def test_threshold_validation(self, world):
        manager, asr, recorder = world
        with pytest.raises(CostModelError):
            AdvisorLoop(manager, asr, recorder, threshold=0.5)
        with pytest.raises(TypeError):  # the cooldown is not a knob
            AdvisorLoop(manager, asr, recorder, cooldown=1.0)


class TestApply:
    def test_applied_retune_resets_recorder_and_counts(self, world, monkeypatch):
        manager, asr, recorder = world
        registry = MetricsRegistry()
        calls = count_retunes(manager, monkeypatch)
        loop = scripted(world, [switch_decision()], monkeypatch, registry=registry)
        assert loop.sweep() is True
        assert loop.retunes == 1
        assert recorder.total_operations == 0
        assert calls == [(Extension.LEFT, Decomposition((0, 2, 6)))]
        assert manager.asrs == [loop.asr] and loop.asr is not asr
        assert registry.counter_value("advisor.retunes") == 1
        assert registry.counter_value("advisor.sweeps") == 1
        assert gauge(registry, "advisor.predicted_gain") == pytest.approx(2.0)
        entry = loop.describe()["history"][-1]
        assert entry["applied"] is True
        assert entry["from"]["extension"] == "full"
        assert entry["to"]["extension"] == "left"
        manager.check_consistency()

    def test_build_failure_counts_and_keeps_sweeping(self, world, monkeypatch):
        manager, asr, recorder = world
        registry = MetricsRegistry()
        real = manager.rematerialize

        def fail(*_args):
            raise RuntimeError("simulated build failure")

        monkeypatch.setattr(manager, "rematerialize", fail)
        loop = scripted(
            world, [switch_decision(), switch_decision()], monkeypatch,
            registry=registry,
        )
        assert loop.sweep() is False
        assert loop.rejected == {"build-failed": 1}
        assert loop.retunes == 0
        assert recorder.total_operations == 1000  # evidence kept for the retry
        assert loop.asr is asr
        monkeypatch.setattr(manager, "rematerialize", real)
        assert loop.sweep() is True

    def test_dry_run_decides_without_acting(self, world, monkeypatch):
        manager, asr, _recorder = world
        calls = count_retunes(manager, monkeypatch)
        loop = scripted(world, [switch_decision()], monkeypatch, dry_run=True)
        assert loop.sweep() is False
        assert loop.rejected == {"dry-run": 1}
        assert not calls and manager.asrs == [asr]
        entry = loop.describe()["history"][-1]
        assert entry["applied"] is False


class TestLifecycle:
    def test_background_loop_sweeps_and_stops(self, world, monkeypatch):
        loop = scripted(
            world, [switch_decision() for _ in range(500)], monkeypatch,
            interval=0.01,
        )
        loop.start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and loop.retunes < 1:
                time.sleep(0.005)
        finally:
            loop.stop()
        assert loop.retunes >= 1
        assert not loop.running

    def test_double_start_rejected(self, world, monkeypatch):
        loop = scripted(world, [], monkeypatch, interval=0.01).start()
        try:
            with pytest.raises(RuntimeError):
                loop.start()
        finally:
            loop.stop()

    def test_describe_is_json_shaped(self, world, monkeypatch):
        loop = scripted(world, [switch_decision()], monkeypatch)
        loop.sweep()
        described = loop.describe()
        assert described["retunes"] == 1
        assert described["design"] == {
            "extension": "left",
            "decomposition": "(0, 2, 6)",
        }
        assert loop.asr.type_decomposition == Decomposition(BORDERS)
        assert described["recorded_ops"] == 0  # reset on the applied retune
        assert described["last_decision"]["predicted_gain"] == pytest.approx(2.0)
        assert "switched to" in described["last_decision"]["decision"]
