"""The background advisor loop: gates, dry-run, rollback accounting."""

import time

import pytest

from repro.errors import CostModelError
from repro.resilience import AdvisorLoop
from repro.telemetry import MetricsRegistry


class FakeExtension:
    def __init__(self, value):
        self.value = value


class FakeASR:
    def __init__(self, extension="full", decomposition="(0, 4)"):
        self.extension = FakeExtension(extension)
        self.decomposition = decomposition


class FakeChoice:
    def __init__(self, extension, cost, decomposition="(0, 2, 4)"):
        self.extension = extension
        self.cost = cost
        self.decomposition = decomposition


class FakeDecision:
    def __init__(self, current_cost, best, retuned):
        self.current_cost = current_cost
        self.best = best
        self.retuned = retuned

    def describe(self):
        return f"current {self.current_cost:.1f}; best {self.best.cost:.1f}"


class FakeRecorder:
    def __init__(self, total=1000):
        self.total_operations = total
        self.resets = 0

    def reset(self):
        self.resets += 1
        self.total_operations = 0


class FakeDesigner:
    """Scripted designer: each recommend() pops the next decision."""

    def __init__(self, decisions, fail_apply=False):
        self.decisions = list(decisions)
        self.recorder = FakeRecorder()
        self.asr = FakeASR()
        self.applied = []
        self.fail_apply = fail_apply

    def recommend(self):
        decision = self.decisions.pop(0)
        if isinstance(decision, Exception):
            raise decision
        return decision

    def apply(self, decision):
        if self.fail_apply:
            raise RuntimeError("simulated build failure")
        self.applied.append(decision)
        self.asr = FakeASR("left", str(decision.best.decomposition))
        return True


def switch_decision(gain=2.0, best_cost=10.0):
    return FakeDecision(
        current_cost=best_cost * gain,
        best=FakeChoice("left", best_cost),
        retuned=True,
    )


class TestGates:
    def test_evidence_floor(self):
        designer = FakeDesigner([switch_decision()])
        designer.recorder.total_operations = 3
        loop = AdvisorLoop(designer, min_ops=32)
        assert loop.sweep() is False
        assert loop.rejected == {"insufficient-ops": 1}
        assert len(designer.decisions) == 1  # recommend never called

    def test_force_skips_evidence_floor(self):
        designer = FakeDesigner([switch_decision()])
        designer.recorder.total_operations = 0
        loop = AdvisorLoop(designer, min_ops=32)
        assert loop.sweep(force=True) is True

    def test_empty_recorder_maps_to_insufficient_ops(self):
        designer = FakeDesigner([CostModelError("no operations recorded yet")])
        loop = AdvisorLoop(designer)
        assert loop.sweep() is False
        assert loop.rejected == {"insufficient-ops": 1}

    def test_recommend_crash_is_counted_not_raised(self):
        designer = FakeDesigner([RuntimeError("boom")])
        loop = AdvisorLoop(designer)
        assert loop.sweep() is False
        assert loop.rejected == {"recommend-failed": 1}

    def test_baseline_refused(self):
        decision = FakeDecision(20.0, FakeChoice(None, 2.0), retuned=True)
        loop = AdvisorLoop(FakeDesigner([decision]))
        assert loop.sweep() is False
        assert loop.rejected == {"baseline": 1}

    def test_not_better_kept(self):
        decision = FakeDecision(10.0, FakeChoice("left", 9.0), retuned=False)
        loop = AdvisorLoop(FakeDesigner([decision]))
        assert loop.sweep() is False
        assert loop.rejected == {"not-better": 1}

    def test_hysteresis_threshold(self):
        """The designer's threshold is the one hysteresis gate: a gain
        it did not clear arrives as ``retuned=False``."""
        designer = FakeDesigner(
            [FakeDecision(11.0, FakeChoice("left", 10.0), retuned=False)]
        )
        designer.improvement_threshold = 1.2
        loop = AdvisorLoop(designer)
        assert loop.sweep() is False
        assert loop.rejected == {"not-better": 1}
        assert loop.describe()["threshold"] == 1.2

    def test_cooldown_paces_retunes(self):
        clock = {"now": 100.0}
        designer = FakeDesigner([switch_decision(), switch_decision()])
        loop = AdvisorLoop(
            designer, interval=1.0, cooldown=10.0, time_fn=lambda: clock["now"]
        )
        assert loop.sweep() is True
        designer.recorder.total_operations = 1000  # re-earn the evidence floor
        clock["now"] += 5.0  # inside the cooldown window
        assert loop.sweep() is False
        assert loop.rejected == {"cooldown": 1}
        assert len(designer.applied) == 1

    def test_cooldown_expires(self):
        clock = {"now": 100.0}
        designer = FakeDesigner([switch_decision(), switch_decision()])
        loop = AdvisorLoop(designer, cooldown=10.0, time_fn=lambda: clock["now"])
        assert loop.sweep() is True
        designer.recorder.total_operations = 1000
        clock["now"] += 11.0
        assert loop.sweep() is True
        assert len(designer.applied) == 2

    def test_threshold_validation(self):
        """The threshold is the designer's to hold and validate."""
        with pytest.raises(TypeError):
            AdvisorLoop(FakeDesigner([]), threshold=1.2)


class TestApply:
    def test_applied_retune_resets_recorder_and_counts(self):
        registry = MetricsRegistry()
        designer = FakeDesigner([switch_decision()])
        loop = AdvisorLoop(designer, registry=registry)
        assert loop.sweep() is True
        assert loop.retunes == 1
        assert designer.recorder.resets == 1
        assert designer.applied
        assert registry.counter_value("advisor.retunes") == 1
        assert registry.counter_value("advisor.sweeps") == 1
        assert registry.gauge_value("advisor.predicted_gain") == pytest.approx(2.0)
        entry = loop.describe()["history"][-1]
        assert entry["applied"] is True
        assert entry["from"]["extension"] == "full"
        assert entry["to"]["extension"] == "left"

    def test_build_failure_counts_and_keeps_sweeping(self):
        registry = MetricsRegistry()
        designer = FakeDesigner(
            [switch_decision(), switch_decision()], fail_apply=True
        )
        loop = AdvisorLoop(designer, registry=registry)
        assert loop.sweep() is False
        assert loop.rejected == {"build-failed": 1}
        assert loop.retunes == 0
        assert designer.recorder.resets == 0  # evidence kept for the retry
        designer.fail_apply = False
        assert loop.sweep() is True

    def test_dry_run_decides_without_acting(self):
        designer = FakeDesigner([switch_decision()])
        loop = AdvisorLoop(designer, dry_run=True)
        assert loop.sweep() is False
        assert loop.rejected == {"dry-run": 1}
        assert not designer.applied
        entry = loop.describe()["history"][-1]
        assert entry["applied"] is False


class TestLifecycle:
    def test_background_loop_sweeps_and_stops(self):
        designer = FakeDesigner([switch_decision() for _ in range(500)])
        loop = AdvisorLoop(designer, interval=0.01, cooldown=0.0).start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and loop.retunes < 1:
                time.sleep(0.005)
        finally:
            loop.stop()
        assert loop.retunes >= 1
        assert not loop.running

    def test_double_start_rejected(self):
        loop = AdvisorLoop(FakeDesigner([]), interval=0.01).start()
        try:
            with pytest.raises(RuntimeError):
                loop.start()
        finally:
            loop.stop()

    def test_describe_is_json_shaped(self):
        loop = AdvisorLoop(FakeDesigner([switch_decision()]))
        loop.sweep()
        described = loop.describe()
        assert described["retunes"] == 1
        assert described["design"] == {
            "extension": "left",
            "decomposition": "(0, 2, 4)",
        }
        assert described["recorded_ops"] == 0  # reset on the applied retune
        assert described["last_decision"]["predicted_gain"] == pytest.approx(2.0)
