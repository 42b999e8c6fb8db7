"""The shared RecoveryPolicy: one backoff ladder for every healer."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.resilience import RecoveryPolicy


class TestDelayLadder:
    def test_first_try_never_waits(self):
        policy = RecoveryPolicy(backoff_s=1.0)
        assert policy.delay(0) == 0.0

    def test_exponential_growth(self):
        policy = RecoveryPolicy(backoff_s=0.1, multiplier=2.0, max_delay_s=100.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_cap_bounds_every_rung(self):
        policy = RecoveryPolicy(backoff_s=1.0, multiplier=10.0, max_delay_s=5.0)
        assert policy.delay(4) == 5.0

    def test_zero_backoff_is_free(self):
        # The default keeps the simulator and the test suite fast while
        # still counting attempts.
        policy = RecoveryPolicy()
        assert all(policy.delay(k) == 0.0 for k in range(6))

    def test_jitter_is_seeded_and_bounded(self):
        policy = RecoveryPolicy(backoff_s=1.0, jitter=0.5, max_delay_s=100.0)
        draws = [policy.delay(1, random.Random(seed)) for seed in range(50)]
        assert all(0.5 <= value <= 1.5 for value in draws)
        assert len(set(draws)) > 1  # actually dithered
        assert policy.delay(1, random.Random(7)) == policy.delay(
            1, random.Random(7)
        )  # replayable

    def test_no_rng_means_no_jitter(self):
        policy = RecoveryPolicy(backoff_s=1.0, jitter=0.5)
        assert policy.delay(1) == 1.0

    @given(
        attempt=st.integers(min_value=0, max_value=20),
        backoff=st.floats(min_value=0.0, max_value=10.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_delay_is_always_finite_and_capped(self, attempt, backoff, jitter, seed):
        policy = RecoveryPolicy(backoff_s=backoff, jitter=jitter, max_delay_s=5.0)
        delay = policy.delay(attempt, random.Random(seed))
        assert 0.0 <= delay <= 5.0 * (1.0 + jitter)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"multiplier": 0.0},
            {"backoff_s": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"max_delay_s": -1.0},
            {"episode_attempts": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kwargs)

    def test_frozen(self):
        policy = RecoveryPolicy()
        with pytest.raises(AttributeError):
            policy.episode_attempts = 9
