"""ChaosController: seeded, replayable strikes against named fault points."""

import pytest

from repro.errors import InjectedFault
from repro.faults import KNOWN_CRASH_POINTS, FaultInjector
from repro.resilience import ChaosConfig, ChaosController
from repro.resilience.chaos import parse_chaos_points


class TestParsePoints:
    def test_single_point_defaults_to_fault(self):
        assert parse_chaos_points("asr.apply.mid-delta") == (
            ("asr.apply.mid-delta", "fault"),
        )

    def test_crash_suffix_and_whitespace(self):
        parsed = parse_chaos_points(" asr.flush.journal:crash , asr.recover.replay ")
        assert parsed == (
            ("asr.flush.journal", "crash"),
            ("asr.recover.replay", "fault"),
        )

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos point"):
            parse_chaos_points("asr.apply.nonsense")

    def test_bad_suffix_rejected(self):
        with pytest.raises(ValueError, match="suffix"):
            parse_chaos_points("asr.apply.mid-delta:explode")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            parse_chaos_points(" , ")

    def test_every_known_point_parses(self):
        spec = ",".join(KNOWN_CRASH_POINTS)
        assert len(parse_chaos_points(spec)) == len(KNOWN_CRASH_POINTS)


class TestChaosConfig:
    def test_enabled_requires_positive_rate(self):
        assert not ChaosConfig().enabled
        assert ChaosConfig(rate=0.5).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"burst": -1},
            {"burst_chance": 2.0},
            {"points": (("asr.apply.mid-delta", "explode"),)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)


def controller(**config_kwargs) -> ChaosController:
    config_kwargs.setdefault("rate", 0.5)
    return ChaosController(FaultInjector(seed=0), ChaosConfig(**config_kwargs))


class TestController:
    def test_strikes_are_seeded_and_replayable(self):
        def strike_pattern(seed):
            chaos = controller(seed=seed, burst=3)
            return [chaos.on_operation() for _ in range(200)], chaos.strikes

        assert strike_pattern(7) == strike_pattern(7)
        assert strike_pattern(7) != strike_pattern(8)

    def test_strike_rate_tracks_config(self):
        chaos = controller(rate=0.25)
        draws = 2000
        for _ in range(draws):
            chaos.on_operation()
        assert 0.15 <= chaos.strikes / draws <= 0.35

    def test_strike_arms_a_known_point(self):
        chaos = controller(rate=1.0)
        assert chaos.on_operation()
        armed = set(chaos.injector.armed_points)
        assert armed and armed <= set(KNOWN_CRASH_POINTS)

    def test_armed_fault_fires_once_per_strike(self):
        chaos = controller(rate=1.0, points=(("asr.apply.mid-delta", "fault"),))
        chaos.on_operation()
        with pytest.raises(InjectedFault):
            chaos.injector.reach("asr.apply.mid-delta")
        chaos.injector.reach("asr.apply.mid-delta")  # disarmed after one shot

    def test_burst_expands_into_consecutive_strikes(self):
        chaos = controller(rate=0.3, burst=4, burst_chance=1.0, seed=1)
        for _ in range(500):
            chaos.on_operation()
        assert chaos.bursts > 0
        # Every burst replaces one strike draw with `burst` strikes.
        assert chaos.strikes >= chaos.bursts * 4

    def test_stop_disarms_and_refuses_further_strikes(self):
        chaos = controller(rate=1.0)
        chaos.on_operation()
        chaos.stop()
        assert chaos.describe()["stopped"] is True
        assert not chaos.injector.armed_points
        assert not chaos.on_operation()

    def test_zero_rate_never_strikes(self):
        chaos = ChaosController(FaultInjector(seed=0), ChaosConfig(rate=0.0))
        assert not any(chaos.on_operation() for _ in range(100))

    def test_describe_is_json_shaped(self):
        chaos = controller(rate=1.0)
        chaos.on_operation()
        description = chaos.describe()
        assert description["strikes"] == 1
        assert description["points"] == ["asr.apply.mid-delta:fault"]
        assert isinstance(description["armed_now"], list)
