"""The daemon's resilience layer end to end: chaos, healer, healthz, sheds."""

import json


from repro.bench.serve import ServeConfig
from repro.faults import FaultInjector
from repro.resilience import ChaosConfig, RecoveryPolicy
from repro.server import ServeDaemon

from tests.test_server import async_config, get, tiny_config, wait_until

STORM = ChaosConfig(rate=0.5, burst=3, seed=7)


def chaos_config(tmp_path, **overrides):
    defaults = dict(
        serve=ServeConfig(
            clients=3, ops=48, seed=7, capacity=64, io_micros=20.0,
            max_inflight=16,
        ),
        recovery=RecoveryPolicy(backoff_s=0.001, jitter=0.25),
        healer_interval=0.01,
        chaos=STORM,
    )
    defaults.update(overrides)
    return tiny_config(tmp_path, **defaults)


class TestChaosStorm:
    def test_storm_heals_and_drains_consistent(self, tmp_path):
        """The tentpole soak in miniature.

        While the storm rages, every `/healthz` poll must show the
        accounting invariant holding (shared == retired + live, checked
        server-side) and `/stats` a finite drift ratio; the healer must
        record at least one recovery; the drain must end with zero
        quarantined ASRs and no errors.
        """
        daemon = ServeDaemon(chaos_config(tmp_path)).start()
        try:
            polled = {"healthz": 0}

            def storm_done():
                status, _, body = get(daemon, "/healthz")
                payload = json.loads(body)
                assert payload["accounting"]["ok"], "accounting broke mid-storm"
                polled["healthz"] += 1
                return (
                    daemon.healer.recoveries >= 1
                    and daemon.chaos.injector.faults_injected >= 1
                )

            assert wait_until(storm_done, timeout=30.0, interval=0.02)
            assert polled["healthz"] >= 1
            _, _, stats_body = get(daemon, "/stats")
            overall = json.loads(stats_body)["drift"]["overall"]
            assert overall["finite"]
        finally:
            report = daemon.shutdown()
        resilience = report["resilience"]
        assert resilience["end_state"]["consistent"]
        assert resilience["end_state"]["quarantined"] == []
        assert resilience["healer"]["recoveries"] >= 1
        assert resilience["chaos"]["strikes"] >= 1
        assert resilience["chaos"]["stopped"]
        assert report["accounting"]["ok"]
        assert report["drained"]["errors"] == []

    def test_storm_report_shape(self, tmp_path):
        daemon = ServeDaemon(chaos_config(tmp_path)).start()
        try:
            assert wait_until(lambda: daemon.ops_served > 0)
        finally:
            report = daemon.shutdown()
        resilience = report["resilience"]
        assert set(resilience) == {
            "healer",
            "chaos",
            "breakers",
            "deadline_shed",
            "chaos_casualties",
            "admission",
            "end_state",
        }
        assert resilience["healer"]["mttr_ms"].keys() == {
            "count",
            "mean_ms",
            "max_ms",
        }
        assert "total_transitions" in resilience["breakers"]

    def test_crash_points_kill_the_op_not_the_client(self, tmp_path):
        # ':crash' strikes raise SimulatedCrash out of the victim
        # operation; under chaos the serving core absorbs it as a
        # casualty and keeps serving.
        config = chaos_config(
            tmp_path,
            chaos=ChaosConfig(
                rate=0.8, seed=7, points=(("asr.apply.mid-delta", "crash"),)
            ),
        )
        daemon = ServeDaemon(config).start()
        try:
            assert wait_until(
                lambda: daemon.world.registry.counter_value("chaos.casualties") >= 1,
                timeout=30.0,
            )
            assert wait_until(lambda: daemon.ops_served > 0)
        finally:
            report = daemon.shutdown()
        assert report["resilience"]["chaos_casualties"] >= 1
        assert report["drained"]["errors"] == []
        assert report["resilience"]["end_state"]["consistent"]


class TestHealthzTiers:
    def quarantine_one(self, daemon, *, unhealable=False):
        """Deterministically tear one apply on a chaos-free daemon.

        With ``unhealable`` the replay point is armed *first* — the
        healer reacts within milliseconds of the quarantine, so arming
        it afterwards would lose the race.
        """
        manager = daemon.world.manager
        injector = FaultInjector(seed=0)
        manager.fault_injector = injector
        if unhealable:
            injector.fault_at("asr.recover.replay", times=10_000)
        injector.fault_at("asr.apply.mid-delta", times=1)
        assert wait_until(lambda: bool(manager.quarantined), timeout=20.0)

    def test_healing_quarantine_keeps_200_with_detail(self, tmp_path):
        # The healer is retrying but cannot win (every attempt faults):
        # actively-healing quarantine is 200, with detail.
        config = tiny_config(
            tmp_path,
            recovery=RecoveryPolicy(episode_attempts=10_000),
            healer_interval=0.01,
        )
        daemon = ServeDaemon(config).start()
        try:
            self.quarantine_one(daemon, unhealable=True)
            assert wait_until(lambda: daemon.healer.failures >= 1, timeout=20.0)
            status, _, body = get(daemon, "/healthz")
            payload = json.loads(body)
            assert status == 200 and payload["ok"]
            assert payload["healing"] and not payload["quarantined_hard"]
            assert payload["healer"]["retrying"] == payload["healing"]
        finally:
            daemon.world.manager.fault_injector.disarm()
            daemon.shutdown()

    def test_hard_down_quarantine_is_503(self, tmp_path):
        # No healer at all: quarantine is hard-down and the probe must
        # see 503 so the orchestrator restarts the process.
        daemon = ServeDaemon(tiny_config(tmp_path, healer=False)).start()
        try:
            self.quarantine_one(daemon)
            status, _, body = get(daemon, "/healthz")
            payload = json.loads(body)
            assert status == 503 and not payload["ok"]
            assert payload["quarantined_hard"] and not payload["healing"]
            assert payload["healer"] is None
        finally:
            daemon.world.manager.fault_injector.disarm()
            daemon.shutdown()


class TestDeadlineShedding:
    def test_expired_queue_entries_shed_unexecuted(self, tmp_path):
        # Millisecond deadline against multi-millisecond device waits:
        # queued entries expire before a worker reaches them.
        config = async_config(tmp_path, op_deadline_ms=0.01)
        daemon = ServeDaemon(config).start()
        try:
            assert wait_until(
                lambda: daemon.world.registry.counter_value("deadline.shed") >= 1,
                timeout=30.0,
            )
            status, _, body = get(daemon, "/healthz")
            assert status == 200  # shedding is load management, not illness
            assert json.loads(body)["deadline_shed"] >= 1
        finally:
            report = daemon.shutdown()
        assert report["resilience"]["deadline_shed"] >= 1
        # Deadline sheds are their own counter, not folded into the
        # front-door rejects.
        assert "deadline.shed" in report["metrics"]["counters"]

    def test_no_deadline_means_no_sheds(self, tmp_path):
        daemon = ServeDaemon(async_config(tmp_path)).start()
        try:
            assert wait_until(lambda: daemon.ops_served > 0)
        finally:
            report = daemon.shutdown()
        assert report["resilience"]["deadline_shed"] == 0


class TestShedBackoff:
    def test_backoff_and_streak_surface_in_report_and_metrics(self, tmp_path):
        config = async_config(tmp_path, max_inflight=2)
        daemon = ServeDaemon(config).start()
        try:
            assert wait_until(
                lambda: daemon.world.registry.counter_value("admission.rejected") >= 1,
                timeout=30.0,
            )
        finally:
            report = daemon.shutdown()
        admission = report["resilience"]["admission"]
        assert admission["rejected"] >= 1
        assert admission["max_shed_streak"] >= 1
        gauges = report["metrics"]["gauges"]
        assert "admission.shed_streak" in gauges
        assert gauges["admission.max_shed_streak"][0]["value"] >= 1
