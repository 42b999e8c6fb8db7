"""The background healer: quarantined ASRs recover without an operator."""

import threading
import time

import pytest

from repro.asr import ASRState, Decomposition, Extension
from repro.resilience import BreakerBoard, HealerLoop, RecoveryPolicy

from tests.asr.test_crash_recovery import managed_world, seed_rows


def quarantine(db, parts, sets, injector, manager, *, times=1):
    """Tear an eager apply so the first ASR lands in quarantine."""
    injector.fault_at("asr.apply.mid-delta", times=times)
    db.set_insert(sets[0], parts[5])
    (asr,) = manager.asrs
    assert asr.quarantined
    return asr


class TestSweep:
    def test_sweep_recovers_a_quarantined_asr(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        healer = HealerLoop(manager)  # not started: sweeps driven by hand
        assert healer.sweep() == 1
        assert asr.state is ASRState.CONSISTENT
        assert healer.recoveries == 1
        assert healer.failures == 0
        manager.check_consistency()

    def test_a_recovery_fault_costs_one_healer_attempt(self):
        # recover() makes one attempt: a fault it hits is the healer's
        # failure to count and retry, not something absorbed inside.
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        injector.fault_at("asr.recover.replay", times=1)
        healer = HealerLoop(manager)
        assert healer.sweep() == 0
        assert healer.failures == 1
        assert asr.state is ASRState.QUARANTINED
        assert healer.sweep() == 1
        assert asr.state is ASRState.CONSISTENT
        assert healer.failures == 1
        manager.check_consistency()

    def test_sweep_with_nothing_quarantined_is_a_noop(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        assert HealerLoop(manager).sweep() == 0

    def test_failed_attempts_ladder_then_give_up(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        # Every recover() attempt hits the armed fault: each sweep is
        # one failed episode attempt.
        injector.fault_at("asr.recover.replay", times=1000)
        healer = HealerLoop(manager, policy=RecoveryPolicy(episode_attempts=2))
        assert healer.sweep() == 0
        assert healer.failures == 1
        assert healer.describe()["retrying"] == [str(asr.path)]
        assert healer.sweep() == 0  # second attempt exhausts the episode
        assert healer.describe()["gave_up"] == [str(asr.path)]
        assert healer.sweep() == 0  # given up: no further recover() calls
        assert healer.failures == 2

    def test_forced_sweep_ignores_give_up_and_heals(self):
        # The drain path: chaos is disarmed, so the final forced sweep
        # reaches consistency.
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        injector.fault_at("asr.recover.replay", times=1000)
        healer = HealerLoop(manager, policy=RecoveryPolicy(episode_attempts=1))
        healer.sweep()
        assert healer.describe()["gave_up"]
        injector.disarm()
        assert healer.sweep(force=True) == 1
        assert asr.state is ASRState.CONSISTENT

    def test_backoff_pacing_skips_episodes_before_next_try(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        quarantine(db, parts, sets, injector, manager)
        injector.fault_at("asr.recover.replay", times=1000)
        policy = RecoveryPolicy(backoff_s=30.0, episode_attempts=5)
        healer = HealerLoop(manager, policy=policy)
        healer.sweep()
        assert healer.failures == 1
        healer.sweep()  # next_try is ~30s out: no second recover() call
        assert healer.failures == 1

    def test_breaker_feed_on_failed_attempts(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        board = BreakerBoard(threshold=10)
        injector.fault_at("asr.recover.replay", times=1000)
        healer = HealerLoop(manager, breakers=board)
        healer.sweep()
        assert board.breaker_for(asr).failures == 1

    def test_mttr_observed_on_recovery(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        quarantine(db, parts, sets, injector, manager)
        clock = {"now": 100.0}
        healer = HealerLoop(manager, time_fn=lambda: clock["now"])
        healer.sweep()  # opens the episode and heals it in one pass
        mttr = healer.describe()["mttr_ms"]
        assert mttr["count"] == 1
        assert mttr["mean_ms"] >= 0.0


class TestLoopLifecycle:
    def test_started_loop_heals_in_background(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        healer = HealerLoop(manager, interval=0.01).start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and asr.quarantined:
                time.sleep(0.005)
        finally:
            healer.stop()
        assert asr.state is ASRState.CONSISTENT
        assert healer.recoveries == 1
        assert not healer.running

    def test_double_start_rejected(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        healer = HealerLoop(manager, interval=0.01).start()
        try:
            with pytest.raises(RuntimeError):
                healer.start()
        finally:
            healer.stop(final_sweep=False)

    def test_stop_runs_one_final_forced_sweep(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        asr = quarantine(db, parts, sets, injector, manager)
        healer = HealerLoop(
            manager, policy=RecoveryPolicy(backoff_s=60.0)
        )  # never started; pacing would defer the retry for a minute
        healer.sweep()  # opens the episode…
        assert asr.quarantined or healer.recoveries  # (fault already consumed)
        healer.stop(final_sweep=True)
        assert asr.state is ASRState.CONSISTENT


class TestHealerRacesAStorm:
    def test_concurrent_faults_updates_and_readers_all_converge(self):
        """The tentpole race: a fault storm vs the healer, live traffic on.

        A writer thread keeps tearing applies (every fault quarantines
        the ASR again), reader threads keep querying through the
        manager's read lock, and the healer loop races both.  Throughout,
        the manager's accounting must hold; at the end, with the storm
        over, one last sweep must land the ASR CONSISTENT and equal to a
        from-scratch rebuild.
        """
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        (asr,) = manager.asrs
        healer = HealerLoop(manager, interval=0.001).start()
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer():
            try:
                for k in range(40):
                    injector.fault_at("asr.apply.mid-delta", times=1)
                    db.set_insert(sets[k % 4], parts[(k + 1) % 6])
                    db.set_remove(sets[k % 4], parts[(k + 1) % 6])
                    time.sleep(0.001)
            except BaseException as error:  # noqa: BLE001 - assert below
                errors.append(error)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    with manager.shared():
                        _ = asr.tuple_count
            except BaseException as error:  # noqa: BLE001 - assert below
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        injector.disarm()
        healer.stop(final_sweep=True)
        assert not errors
        assert healer.recoveries >= 1
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()
