"""Crash consistency: every ASR is consistent or quarantined, never torn.

The invariant under test: whatever named crash point fires during
maintenance, each managed ASR afterwards either still equals a
from-scratch rebuild (``consistency_check``) or is explicitly
quarantined — and after ``recover()`` it equals the rebuild again.  The
property test replays random update streams, chunked into transactions,
with a crash armed at every flush boundary, for all four extensions.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import ASRManager, ASRState, Decomposition, Extension
from repro.context import ExecutionContext
from repro.errors import InjectedFault, RecoveryError, SimulatedCrash
from repro.faults import FaultInjector
from repro.resilience import HealerLoop, RecoveryPolicy

from tests.asr.test_batched_maintenance import apply_op, make_world, operations

FLUSH_POINTS = ("asr.flush.journal", "asr.flush.mid-delta", "asr.flush.post-delta")
APPLY_POINTS = ("asr.apply.journal", "asr.apply.mid-delta", "asr.apply.post-delta")


def managed_world():
    db, path, parts, sets, prods = make_world()
    injector = FaultInjector(seed=0)
    manager = ASRManager(db, fault_injector=injector)
    return db, path, parts, sets, prods, injector, manager


def seed_rows(db, parts, sets, prods):
    """Give every ASR something to tear: link prods -> sets -> parts."""
    for k in range(4):
        db.set_attr(prods[k], "Parts", sets[k])
        db.set_insert(sets[k], parts[k])


class TestCrashPoints:
    @pytest.mark.parametrize("point", FLUSH_POINTS)
    def test_crash_during_flush_quarantines_then_recovers(self, point):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        injector.crash_at(point)
        with pytest.raises(SimulatedCrash):
            with manager.batch():
                db.set_insert(sets[0], parts[5])
                db.set_remove(sets[1], parts[1])
        assert asr.state is ASRState.QUARANTINED
        assert manager.recover() == 1
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()

    @pytest.mark.parametrize("point", APPLY_POINTS)
    def test_crash_during_eager_apply(self, point):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.crash_at(point)
        with pytest.raises(SimulatedCrash):
            db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        manager.recover()
        manager.check_consistency()

    @pytest.mark.parametrize("point", ("asr.recover.replay", "asr.recover.reload"))
    def test_crash_during_recovery_keeps_quarantine(self, point):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.crash_at("asr.flush.mid-delta")
        with pytest.raises(SimulatedCrash):
            with manager.batch():
                db.set_insert(sets[0], parts[5])
        injector.crash_at(point)
        with pytest.raises(SimulatedCrash):
            manager.recover()
        assert asr.quarantined  # the second "process" died too
        manager.recover()  # third run is clean and idempotent
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()

    @pytest.mark.parametrize("point", ("asr.flush.journal", "asr.flush.mid-delta"))
    def test_recovery_heals_the_by_cell_index(self, point):
        # recover() swaps in a freshly derived logical relation: its
        # by-cell index must describe the new rows, not the torn ones.
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        injector.crash_at(point)
        with pytest.raises(SimulatedCrash):
            with manager.batch():
                db.set_insert(sets[0], parts[5])
                db.set_remove(sets[1], parts[1])
        db.set_attr(prods[2], "Parts", sets[0])  # lands while quarantined
        before = asr.recompose().rows
        assert manager.recover() == 1
        assert asr.recompose().rows != before
        manager.check_consistency()

    def test_recovery_is_idempotent_after_post_delta_crash(self):
        # post-delta: the delta was fully applied, only the commit is
        # missing.  Recovery must not double-apply anything.
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.CANONICAL)
        seed_rows(db, parts, sets, prods)
        injector.crash_at("asr.apply.post-delta")
        with pytest.raises(SimulatedCrash):
            db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        manager.recover()
        manager.check_consistency()

    def test_events_on_quarantined_asr_are_absorbed(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.crash_at("asr.apply.mid-delta")
        with pytest.raises(SimulatedCrash):
            db.set_insert(sets[0], parts[5])
        torn = set(asr.recompose().rows)
        # Keep updating while quarantined: the torn ASR is left alone
        # (no region is computed, no delta applied) ...
        db.set_insert(sets[1], parts[4])
        db.set_remove(sets[2], parts[2])
        assert asr.state is ASRState.QUARANTINED
        assert set(asr.recompose().rows) == torn
        manager.recover()  # ... and one pass heals the tear and everything since
        manager.check_consistency()


class TestTransientFaults:
    def test_without_auto_recover_flush_continues_degraded(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.fault_at("asr.flush.mid-delta", times=1)
        with manager.batch():
            db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        manager.recover()
        manager.check_consistency()

    def test_recovery_retries_through_transient_faults(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext()
        asr = manager.create(path, Extension.RIGHT)
        seed_rows(db, parts, sets, prods)
        injector.fault_at("asr.apply.mid-delta", times=1)
        db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        # Two transient faults: each recover() is one attempt, so the
        # first two raise and the third heals.
        injector.fault_at("asr.recover.replay", times=2)
        for _ in range(2):
            with pytest.raises(RecoveryError):
                manager.recover()
            assert asr.state is ASRState.QUARANTINED
        assert manager.recover() == 1
        assert asr.state is ASRState.CONSISTENT
        assert manager.context.op_counts["asr.recover.attempt"] == 3
        manager.check_consistency()

    def test_exhausted_retries_fall_back_to_rebuild(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext()
        asr = manager.create(path, Extension.LEFT)
        seed_rows(db, parts, sets, prods)
        injector.fault_at("asr.apply.mid-delta", times=1)
        db.set_insert(sets[0], parts[5])
        # While every attempt faults there is no second repair to fall
        # back to: the ASR stays quarantined, attempt after attempt.
        injector.fault_at("asr.recover.replay", times=3)
        for _ in range(3):
            with pytest.raises(RecoveryError):
                manager.recover()
            assert asr.state is ASRState.QUARANTINED
        assert "asr.recover.ok" not in manager.context.op_counts
        # Once the fault clears, the one repair (derive it again) heals.
        assert manager.recover() == 1
        assert asr.state is ASRState.CONSISTENT
        assert manager.context.op_counts["asr.recover.attempt"] == 4
        assert manager.context.op_counts["asr.recover.ok"] == 1
        manager.check_consistency()

    def test_reload_fault_raises_after_one_attempt(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext()
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        injector.fault_at("asr.apply.mid-delta", times=1)
        db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        injector.fault_at("asr.recover.reload", times=1000)
        with pytest.raises(RecoveryError):
            manager.recover()
        assert manager.context.op_counts["asr.recover.attempt"] == 1
        assert injector.hits["asr.recover.reload"] == 1
        assert asr.state is ASRState.QUARANTINED

    def test_probabilistic_write_faults_quarantine_not_tear(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext(fault_injector=injector)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        seed_rows(db, parts, sets, prods)
        injector.write_fault_rate = 0.4
        for k in range(6):
            try:
                db.set_insert(sets[k % 4], parts[(k + 3) % 6])
            except InjectedFault:
                pass
        injector.write_fault_rate = 0.0
        if asr.quarantined:
            manager.recover()
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()


class TestBackoffLockDiscipline:
    def test_reader_progresses_during_recovery_backoff(self):
        """The healer's backoff between attempts holds no lock.

        ``recover()`` is one attempt under one write hold; the waits
        between attempts belong to the healer and run unlocked.  So
        while the healer paces a failing ASR, a concurrent reader
        acquires the read side promptly.
        """
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.fault_at("asr.apply.mid-delta", times=1)
        db.set_insert(sets[0], parts[5])
        assert asr.quarantined
        # Two transient replay faults: the healer waits 0.25s, then
        # 0.5s, before its third attempt heals the ASR.
        injector.fault_at("asr.recover.replay", times=2)
        healer = HealerLoop(
            manager, policy=RecoveryPolicy(backoff_s=0.25), interval=0.01
        ).start()
        try:
            deadline = time.monotonic() + 5.0
            while injector.hits.get("asr.recover.replay", 0) < 1:
                if time.monotonic() > deadline:
                    pytest.fail("recovery never reached its first attempt")
                time.sleep(0.005)
            # From here the healer is pacing (~0.75s of waiting in
            # total).  Readers must get through far faster than any
            # single backoff step.
            acquisitions = 0
            while asr.quarantined and acquisitions < 3:
                t0 = time.monotonic()
                with manager.lock.read():
                    acquired_in = time.monotonic() - t0
                assert acquired_in < 0.2, (
                    f"reader blocked {acquired_in:.3f}s during recovery backoff"
                )
                acquisitions += 1
                time.sleep(0.01)
            assert acquisitions >= 1
            while asr.quarantined:
                if time.monotonic() > deadline:
                    pytest.fail("the healer never healed the ASR")
                time.sleep(0.005)
        finally:
            healer.stop(final_sweep=False)
        assert asr.state is ASRState.CONSISTENT
        assert healer.failures == 2
        assert manager.context.op_counts["asr.recover.attempt"] == 3
        manager.check_consistency()


class TestBatchAbort:
    def test_exception_in_batch_does_not_flush_half_formed_state(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        manager.context = ExecutionContext()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        rows_before = set(asr.recompose().rows)
        with pytest.raises(RuntimeError):
            with manager.batch():
                db.set_insert(sets[0], parts[5])
                raise RuntimeError("application bug mid-transaction")
        # No tree work happened during unwind; the real net delta is
        # journalled via quarantine for a later, deliberate recovery.
        assert set(asr.recompose().rows) == rows_before
        assert asr.quarantined
        assert manager.context.op_counts.get("asr.batch.aborted") == 1
        manager.recover()
        manager.check_consistency()

    def test_aborted_batch_with_net_empty_delta_is_discarded(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        with pytest.raises(RuntimeError):
            with manager.batch():
                db.set_insert(sets[0], parts[5])
                db.set_remove(sets[0], parts[5])  # net no-op
                raise RuntimeError("boom")
        # Nothing actually changed, so nothing to quarantine.
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()

    def test_close_during_batch_still_flushes_then_unsubscribes(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        with manager.batch():
            db.set_insert(sets[0], parts[5])
            manager.close()
        assert manager.closed
        manager.check_consistency()
        manager.close()  # idempotent

    def test_close_survives_injected_crash_and_stays_closed(self):
        db, path, parts, sets, prods, injector, manager = managed_world()
        asr = manager.create(path, Extension.FULL)
        seed_rows(db, parts, sets, prods)
        injector.crash_at("asr.flush.mid-delta")
        manager._batch_depth += 1
        db.set_insert(sets[0], parts[5])
        manager._batch_depth -= 1
        with pytest.raises(SimulatedCrash):
            manager.close()
        assert manager.closed  # marked closed despite the crash
        assert asr.quarantined  # and the tear is not silent
        manager.recover()
        manager.check_consistency()


class TestCrashReplayProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        operations,
        st.integers(1, 6),
        st.sampled_from(list(Extension)),
        st.sampled_from(FLUSH_POINTS),
        st.integers(1, 3),
    )
    def test_recovered_state_equals_rebuild(self, ops, txn_size, extension, point, on_hit):
        """Random streams, a crash armed at every flush boundary."""
        db, path, parts, sets, prods = make_world()
        injector = FaultInjector(seed=0)
        manager = ASRManager(db, fault_injector=injector)
        asr = manager.create(path, extension, Decomposition.binary(path.m))
        alive = list(parts)
        for start in range(0, len(ops), txn_size):
            injector.crash_at(point, on_hit=on_hit)
            crashed = False
            try:
                with manager.batch():
                    for op, x, y in ops[start : start + txn_size]:
                        apply_op(db, alive, sets, prods, op, x, y)
            except SimulatedCrash:
                crashed = True
            injector.disarm()
            # The invariant: consistent or quarantined, never silently torn.
            if asr.quarantined:
                assert crashed
                manager.recover()
            assert asr.state is ASRState.CONSISTENT
            manager.check_consistency()
