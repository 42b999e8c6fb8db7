"""FaultInjector: arming semantics, determinism, buffer-scope wiring."""

import pytest

from repro.context import ExecutionContext
from repro.errors import InjectedFault, SimulatedCrash, StorageError
from repro.faults import KNOWN_CRASH_POINTS, FaultInjector, reach
from repro.storage.stats import (
    AccessStats,
    BufferScope,
    NullBuffer,
    SharedBufferPool,
)


class TestArming:
    def test_crash_fires_once_then_disarms(self):
        injector = FaultInjector()
        injector.crash_at("asr.flush.mid-delta")
        with pytest.raises(SimulatedCrash):
            injector.reach("asr.flush.mid-delta")
        assert injector.armed_points == ()
        # The "restarted process" passes the same point unharmed.
        injector.reach("asr.flush.mid-delta")
        assert injector.crashes_injected == 1

    def test_crash_on_nth_visit_counts_from_arming(self):
        injector = FaultInjector()
        injector.reach("p")  # historical visit, must not count
        injector.crash_at("p", on_hit=2)
        injector.reach("p")
        with pytest.raises(SimulatedCrash):
            injector.reach("p")

    def test_transient_fault_clears_after_times(self):
        injector = FaultInjector()
        injector.fault_at("p", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.reach("p")
        injector.reach("p")  # third visit is clean
        assert injector.faults_injected == 2
        assert injector.armed_points == ()

    def test_unarmed_points_are_free(self):
        injector = FaultInjector()
        for point in KNOWN_CRASH_POINTS:
            injector.reach(point)
        assert injector.faults_injected == 0
        assert injector.crashes_injected == 0

    def test_disarm(self):
        injector = FaultInjector()
        injector.crash_at("a")
        injector.fault_at("b")
        injector.disarm("a")
        assert injector.armed_points == ("b",)
        injector.disarm()
        assert injector.armed_points == ()

    def test_none_safe_module_helper(self):
        reach(None, "anything")  # must not raise
        injector = FaultInjector()
        injector.crash_at("x")
        with pytest.raises(SimulatedCrash):
            reach(injector, "x")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(read_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(write_fault_rate=-0.1)
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.crash_at("p", on_hit=0)
        with pytest.raises(ValueError):
            injector.fault_at("p", times=0)

    def test_exception_taxonomy(self):
        # InjectedFault is a transient *storage* error; SimulatedCrash is
        # not (a dead process is not a retryable I/O condition).
        assert issubclass(InjectedFault, StorageError)
        assert not issubclass(SimulatedCrash, StorageError)


class TestProbabilisticFaults:
    def test_same_seed_replays_same_faults(self):
        def run(seed):
            injector = FaultInjector(seed=seed, read_fault_rate=0.3)
            outcomes = []
            for page in range(50):
                try:
                    injector.on_read(page)
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        assert run(11) == run(11)
        assert run(11) != run(12)  # astronomically unlikely to collide

    def test_zero_rate_never_faults(self):
        injector = FaultInjector(seed=1)
        for page in range(100):
            injector.on_read(page)
            injector.on_write(page)
        assert injector.faults_injected == 0


class TestBufferWiring:
    def _failing_injector(self):
        injector = FaultInjector(seed=0, read_fault_rate=1.0, write_fault_rate=1.0)
        return injector

    def test_buffer_scope_faults_only_on_miss(self):
        stats = AccessStats()
        scope = BufferScope(stats, self._failing_injector())
        with pytest.raises(InjectedFault):
            scope.touch("p1")
        # The failed read was not charged and the page is not resident.
        assert stats.page_reads == 0
        assert scope.distinct_pages == 0

    def test_resident_pages_never_fault(self):
        stats = AccessStats()
        injector = FaultInjector()
        scope = BufferScope(stats, injector)
        scope.touch("p1")
        injector.read_fault_rate = 1.0
        scope.touch("p1")  # cache hit: no physical I/O, no fault
        assert stats.page_reads == 1

    def test_null_buffer_faults_every_touch(self):
        stats = AccessStats()
        scope = NullBuffer(stats, self._failing_injector())
        with pytest.raises(InjectedFault):
            scope.touch("p1")
        with pytest.raises(InjectedFault):
            scope.touch_write("p1")
        assert stats.total == 0

    def test_bounded_scope_faults_before_lru_mutation(self):
        stats = AccessStats()
        injector = FaultInjector()
        scope = SharedBufferPool(stats, capacity=2, injector=injector)
        scope.touch("p1")  # the LIR frame
        scope.touch("p2")  # the HIR frame: the eviction candidate

        def lirs_state():
            return (
                list(scope._stack),
                list(scope._hir.items()),
                list(scope._lir.items()),
                list(scope._ghosts),
            )

        before = lirs_state()
        injector.write_fault_rate = injector.read_fault_rate = 1.0
        with pytest.raises(InjectedFault):
            scope.touch_write("p2")  # resident but clean: write is charged
        with pytest.raises(InjectedFault):
            scope.touch("p3")
        # A faulted touch moves nothing: not the stats, not the hit/miss
        # counters, not S, the HIR queue, the LIR set or the ghosts, not
        # the dirty flag.
        assert lirs_state() == before
        assert (stats.page_reads, stats.page_writes) == (2, 0)
        assert (scope.hits, scope.misses, scope.evictions) == (0, 2, 0)
        injector.read_fault_rate = 0.0
        scope.touch("p3")  # evicts p2: the failed write did not promote it
        assert scope.touch("p1") is False
        with pytest.raises(InjectedFault):
            scope.touch_write("p1")
        # The failed write must not have marked the frame dirty, so a
        # retry after clearing the fault charges the write normally.
        injector.write_fault_rate = 0.0
        assert scope.touch_write("p1") is True
        assert stats.page_writes == 1

    def test_context_threads_injector_into_scopes(self):
        def injector():
            return FaultInjector(seed=3, read_fault_rate=1.0)

        # The per-operation scope gets the context's injector; a supplied
        # buffer consults the one it was built with.
        for context in (
            ExecutionContext(fault_injector=injector()),
            ExecutionContext(buffer=SharedBufferPool(AccessStats(), 4, injector())),
            ExecutionContext(buffer=NullBuffer(AccessStats(), injector())),
        ):
            with pytest.raises(InjectedFault):
                context.current_buffer.touch("p1")
            with pytest.raises(InjectedFault), context.operation("op") as buffer:
                buffer.touch("p1")
            assert context.stats.total == 0
