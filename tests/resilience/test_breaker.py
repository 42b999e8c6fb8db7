"""Per-ASR circuit breakers: open on fault evidence, close via a probe."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import BreakerBoard, CircuitBreaker
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.telemetry import MetricsRegistry
from tests.telemetry.test_registry import gauge


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def breaker(**kwargs) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("threshold", 3)
    kwargs.setdefault("cooldown_s", 1.0)
    return CircuitBreaker("P [full]", time_fn=clock, **kwargs), clock


class TestStateMachine:
    def test_opens_at_threshold(self):
        b, _ = breaker()
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED and b.allow()
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()

    def test_cooldown_admits_exactly_one_probe(self):
        b, clock = breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(0.5)
        assert not b.allow()  # still cooling down
        clock.advance(0.6)
        assert b.allow()  # the probe
        assert b.state == HALF_OPEN
        assert not b.allow()  # no second probe inside the window

    def test_probe_success_closes_and_clears(self):
        b, clock = breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(1.1)
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED
        assert b.failures == 0
        assert b.allow()

    def test_probe_failure_reopens_immediately(self):
        b, clock = breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(1.1)
        assert b.allow()
        b.record_failure()  # one failed probe, not `threshold` of them
        assert b.state == OPEN
        assert not b.allow()
        clock.advance(1.1)
        assert b.allow()  # the next cooldown earns another probe

    def test_stuck_probe_expires_after_another_cooldown(self):
        # A prober that dies without reporting must not wedge the
        # breaker half-open forever.
        b, clock = breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(1.1)
        assert b.allow()
        clock.advance(1.1)
        assert b.allow()  # replacement probe

    def test_routine_closed_successes_do_not_reset_failures(self):
        # The deliberate asymmetry: under a storm's fault/heal/query
        # rhythm the count must keep accumulating, or the breaker
        # never opens.  Only a half-open probe clears it.
        b, _ = breaker()
        b.record_failure()
        b.record_failure()
        assert b.failures == 2

    def test_transitions_are_counted(self):
        b, clock = breaker()
        for _ in range(3):
            b.record_failure()
        clock.advance(1.1)
        b.allow()
        b.record_success()
        description = b.describe()
        assert description["transitions"] == {
            "closed->open": 1,
            "open->half-open": 1,
            "half-open->closed": 1,
        }

    def test_reset_force_closes(self):
        b, _ = breaker()
        for _ in range(3):
            b.record_failure()
        b.reset()
        assert b.state == CLOSED and b.failures == 0 and b.allow()

    def test_gauges_and_transition_counters_published(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        b = CircuitBreaker(
            "P [full]", threshold=1, cooldown_s=1.0, registry=registry, time_fn=clock
        )
        b.record_failure()
        assert gauge(registry, "breaker.state", asr="P [full]") == 1.0
        assert (
            registry.counter_value(
                "breaker.transitions", asr="P [full]", **{"from": "closed", "to": "open"}
            )
            == 1
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown_s=-1.0)


# One symbolic event stream, replayed against the real breaker: after
# any prefix of failures/successes/probes/time-steps the state must
# remain sane and `allow()` must agree with the state's contract.
EVENTS = st.lists(
    st.sampled_from(["fail", "success", "allow", "tick"]), min_size=0, max_size=60
)


class TestBreakerProperties:
    @settings(max_examples=200, deadline=None)
    @given(events=EVENTS, threshold=st.integers(min_value=1, max_value=5))
    def test_state_invariants_hold_under_any_event_stream(self, events, threshold):
        clock = FakeClock()
        b = CircuitBreaker("p", threshold=threshold, cooldown_s=1.0, time_fn=clock)
        for event in events:
            if event == "fail":
                b.record_failure()
            elif event == "success":
                b.record_success()
            elif event == "allow":
                b.allow()
            else:
                clock.advance(0.4)
            assert b.state in (CLOSED, OPEN, HALF_OPEN)
            assert b.failures >= 0
            if b.state == CLOSED:
                # A closed breaker is always below threshold (reaching
                # it opens immediately) and always admits.
                assert b.failures < threshold
                assert b.allow()
            total = sum(b.transitions.values())
            entered_open = b.transitions.get((CLOSED, OPEN), 0) + b.transitions.get(
                (HALF_OPEN, OPEN), 0
            )
            left_open = b.transitions.get((OPEN, HALF_OPEN), 0)
            assert left_open <= entered_open  # can't leave more than entered
            assert total >= 0

    @settings(max_examples=100, deadline=None)
    @given(failures=st.integers(min_value=0, max_value=12))
    def test_open_iff_threshold_reached(self, failures):
        b, _ = breaker(threshold=4)
        for _ in range(failures):
            b.record_failure()
        assert (b.state == OPEN) == (failures >= 4)


class FakeASR:
    def __init__(self, path="Division.Manufactures", extension="full"):
        self.path = path
        self.extension = type("Ext", (), {"value": extension})()


class TestBreakerBoard:
    def test_lazy_per_asr_breakers_keyed_by_identity(self):
        board = BreakerBoard()
        a, b = FakeASR("P1"), FakeASR("P2")
        assert board.breaker_for(a) is board.breaker_for(a)
        assert board.breaker_for(a) is not board.breaker_for(b)
        assert board.breaker_for(a).name == "P1 [full]"

    def test_quarantine_listener_counts_failures(self):
        board = BreakerBoard(threshold=2)
        asr = FakeASR()
        board.on_asr_state(asr, "quarantined")
        board.on_asr_state(asr, "consistent")  # not evidence either way
        board.on_asr_state(asr, "quarantined")
        assert board.breaker_for(asr).state == OPEN
        assert not board.allow_query(asr)

    def test_routine_success_is_not_forwarded(self):
        board = BreakerBoard(threshold=3)
        asr = FakeASR()
        board.record_failure(asr)
        board.record_failure(asr)
        board.record_success(asr)  # closed: a routine query success
        assert board.breaker_for(asr).failures == 2

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        board = BreakerBoard(threshold=1, cooldown_s=1.0, time_fn=clock)
        asr = FakeASR()
        board.record_failure(asr)
        assert not board.allow_query(asr)
        clock.advance(1.1)
        assert board.allow_query(asr)  # the probe
        board.record_success(asr)
        assert board.breaker_for(asr).state == CLOSED

    def test_describe_rolls_up_open_set_and_transitions(self):
        board = BreakerBoard(threshold=1)
        asr = FakeASR("P9")
        board.record_failure(asr)
        description = board.describe()
        assert description["open"] == ["P9 [full]"]
        assert description["total_transitions"] == 1
        assert "P9 [full]" in description["breakers"]
