"""Simulated device model: distributions, spec parsing, charge mechanics."""

import asyncio
import time

import pytest

from repro.device import (
    DEVICE_CLASSES,
    DeviceModel,
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    parse_io_dist,
)
from repro.telemetry import MetricsRegistry


class TestFixedLatency:
    def test_linear_in_pages(self):
        model = FixedLatency(io_micros=200.0)
        assert model.seconds(0) == 0.0
        assert model.seconds(1) == pytest.approx(200e-6)
        assert model.seconds(50) == pytest.approx(50 * 200e-6)

    def test_describe(self):
        assert FixedLatency(150.0).describe() == {
            "dist": "fixed",
            "io_micros": 150.0,
        }


class TestLognormalLatency:
    def test_seeded_replay_is_deterministic(self):
        a = LognormalLatency(100.0, sigma=0.5, seed=7)
        b = LognormalLatency(100.0, sigma=0.5, seed=7)
        assert [a.seconds(3) for _ in range(20)] == [
            b.seconds(3) for _ in range(20)
        ]

    def test_median_tracks_io_micros(self):
        # The jitter factor has median 1, so the per-page median stays
        # io_micros.  999 draws put the sample median well inside ±25%.
        model = LognormalLatency(100.0, sigma=0.5, seed=0)
        draws = sorted(model.seconds(1) for _ in range(999))
        assert draws[499] == pytest.approx(100e-6, rel=0.25)

    def test_one_draw_per_operation_not_per_page(self):
        # Doubling pages with the same RNG state doubles the result of
        # the *next single* draw — pages scale linearly inside one call.
        a = LognormalLatency(100.0, sigma=0.5, seed=3)
        b = LognormalLatency(100.0, sigma=0.5, seed=3)
        assert b.seconds(10) == pytest.approx(10 * a.seconds(1))

    def test_zero_pages_and_zero_micros_cost_nothing(self):
        model = LognormalLatency(100.0, sigma=0.5, seed=0)
        assert model.seconds(0) == 0.0
        assert LognormalLatency(0.0, seed=0).seconds(5) == 0.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            LognormalLatency(-1.0)
        with pytest.raises(ValueError):
            LognormalLatency(100.0, sigma=-0.5)


class TestParseIoDist:
    def test_fixed(self):
        model = parse_io_dist("fixed", 250.0)
        assert isinstance(model, FixedLatency)
        assert model.io_micros == 250.0

    def test_lognormal_default_sigma(self):
        model = parse_io_dist("lognormal", 100.0, seed=5)
        assert isinstance(model, LognormalLatency)
        assert (model.io_micros, model.sigma, model.seed) == (100.0, 0.5, 5)

    def test_lognormal_explicit_sigma(self):
        model = parse_io_dist("lognormal:0.25", 100.0)
        assert model.sigma == 0.25

    def test_device_class_presets_override_io_micros(self):
        for name, (median, sigma) in DEVICE_CLASSES.items():
            model = parse_io_dist(name, 999999.0, seed=1)
            assert isinstance(model, LognormalLatency)
            assert (model.io_micros, model.sigma) == (median, sigma)

    def test_spec_is_case_and_whitespace_insensitive(self):
        assert isinstance(parse_io_dist("  Fixed ", 100.0), FixedLatency)
        assert isinstance(parse_io_dist("NVMe", 100.0), LognormalLatency)

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError, match="unknown io-dist"):
            parse_io_dist("tape", 100.0)

    def test_bad_sigma_raises(self):
        with pytest.raises(ValueError, match="sigma"):
            parse_io_dist("lognormal:fast", 100.0)


class _Broken(LatencyModel):
    """A latency model that returns whatever it was told to."""

    def __init__(self, value):
        self.value = value

    def seconds(self, pages):
        return self.value

    def describe(self):
        return {"dist": "broken"}


class TestDeviceModel:
    def test_defaults_to_fixed_latency(self):
        device = DeviceModel()
        assert isinstance(device.latency, FixedLatency)
        assert device.latency.describe()["dist"] == "fixed"

    def test_zero_pages_cost_nothing(self):
        device = DeviceModel(FixedLatency(1e9))
        assert device.seconds(0) == 0.0
        assert device.charge(0) == 0.0

    def test_charge_sleeps_the_model_seconds(self):
        device = DeviceModel(FixedLatency(io_micros=5000.0))
        start = time.perf_counter()
        seconds = device.charge(4)  # 20ms
        elapsed = time.perf_counter() - start
        assert seconds == pytest.approx(0.02)
        assert elapsed >= 0.015

    def test_acharge_prices_the_same_seconds(self):
        device = DeviceModel(FixedLatency(io_micros=1000.0))
        assert asyncio.run(device.acharge(3)) == device.charge(3)

    def test_charges_publish_into_registry(self):
        registry = MetricsRegistry()
        device = DeviceModel(FixedLatency(io_micros=1.0), registry)
        device.charge(7)
        asyncio.run(device.acharge(5))
        device.charge(0)  # zero pages publish nothing
        assert registry.counter_value("device.pages") == 12
        histograms = registry.snapshot()["histograms"]
        (series,) = histograms["device.charge_ms"]
        assert series["count"] == 2

    def test_non_finite_latency_is_rejected(self):
        for bad in (float("nan"), float("inf"), -1.0):
            device = DeviceModel(_Broken(bad))
            with pytest.raises(ValueError, match="latency model produced"):
                device.seconds(1)
