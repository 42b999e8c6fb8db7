"""Concurrency: RWLock, ContextPool, and mixed traffic under contention.

The invariants these tests pin down:

* the shared LIRS pool is never torn (bounded residency and ghosts, a
  LIR stack bottom, sane flags);
* every pool miss is recorded once, in the record of the worker that
  caused it: the misses equal the sum of the per-worker totals;
* readers share the ASR manager's lock, writers are exclusive, and the
  answers under contention equal the single-threaded oracle;
* a quarantined ASR degrades queries (correctly) even while other
  threads hammer the manager, and recovery heals it.
"""

import random
import sys
import threading
import time

import pytest

from repro.asr.extensions import Extension
from repro.asr.journal import ASRState
from repro.asr.manager import ASRManager
from repro.concurrency import ContextPool, RWLock
from repro.costmodel.parameters import ApplicationProfile
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.query.evaluator import QueryEvaluator
from repro.query.planner import Planner
from repro.telemetry import MetricsRegistry
from repro.workload.generator import ChainGenerator
from repro.workload.opstream import apply_update, operation_stream
from repro.workload.profiles import FIG14_MIX
from tests.telemetry.test_registry import gauge

SMALL = ApplicationProfile(
    c=(20, 40, 60, 120, 240),
    d=(18, 32, 48, 100),
    fan=(2, 2, 2, 2),
)


def run_threads(n, target):
    errors = []

    def wrap(k):
        try:
            target(k)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=wrap, args=(k,)) for k in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def assert_misses_recorded(pool, registry) -> dict:
    """The misses equal the recorded reads + writes, read through the registry."""
    accounting = pool.check_accounting(registry)
    assert accounting["ok"] is True
    assert gauge(registry, "accounting.ok") == 1.0
    misses = gauge(registry, "accounting.pool_misses")
    assert misses == pool.pool.misses > 0
    assert misses == gauge(registry, "accounting.recorded_reads") + gauge(
        registry, "accounting.recorded_writes"
    )
    return accounting


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        inside = []
        barrier = threading.Barrier(4)

        def reader(_k):
            with lock.read():
                barrier.wait(timeout=5)  # all four must be inside at once
                inside.append(1)

        run_threads(4, reader)
        assert len(inside) == 4

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        active = []
        peaks = []

        def worker(k):
            for _ in range(50):
                with lock.write() if k % 2 else lock.read():
                    active.append(k)
                    if k % 2:  # a writer must be alone
                        peaks.append(len(active))
                    time.sleep(0)
                    active.remove(k)

        run_threads(4, worker)
        # While a writer held the lock nobody else was active.
        assert peaks and all(peak == 1 for peak in peaks)

    def test_no_lost_wakeup_under_contention(self):
        # A released read wakes waiters only when a queued writer can
        # go.  With one writer among eight readers, a missed wakeup
        # strands the writer (only the last reader's release can wake
        # it) and every reader queued behind it: the join deadline.
        lock = RWLock()
        writes, overlaps = [0], []
        writing = threading.Event()
        readers, rounds = 8, 200

        def worker(k):
            for _ in range(rounds):
                if k == 0:
                    with lock.write():
                        writing.set()
                        time.sleep(0)
                        writes[0] += 1
                        writing.clear()
                else:
                    with lock.read():
                        if writing.is_set():
                            overlaps.append(k)
                        time.sleep(0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [  # daemons: a hung one must not hang the run too
                threading.Thread(target=worker, args=(k,), daemon=True)
                for k in range(readers + 1)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 20.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert writes[0] == rounds and not overlaps

    def test_write_is_reentrant(self):
        lock = RWLock()
        with lock.write():
            with lock.write():
                assert lock.write_held
            assert lock.write_held
        assert not lock.write_held

    def test_read_allowed_under_own_write(self):
        lock = RWLock()
        with lock.write():
            with lock.read():
                pass
            assert lock.write_held

    def test_upgrade_refused(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()

    def test_release_write_by_stranger_refused(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_write()


class TestWriterPreference:
    """A queued writer must not starve behind a saturating read stream."""

    def wait_for(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.001)
        return predicate()

    def test_queued_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()  # main thread holds a read lock
        writer_in = threading.Event()
        writer_release = threading.Event()
        late_reader_in = threading.Event()

        def writer_target():
            lock.acquire_write()
            writer_in.set()
            writer_release.wait(timeout=5)
            lock.release_write()

        def late_reader_target():
            lock.acquire_read()
            late_reader_in.set()
            lock.release_read()

        writer = threading.Thread(target=writer_target)
        writer.start()
        assert self.wait_for(lambda: lock.writers_waiting == 1)

        late_reader = threading.Thread(target=late_reader_target)
        late_reader.start()
        # The late reader queues behind the waiting writer instead of
        # joining the current read phase.
        time.sleep(0.05)
        assert not late_reader_in.is_set()
        assert not writer_in.is_set()

        lock.release_read()
        # The writer wins the race for the released lock.
        assert writer_in.wait(timeout=5)
        assert not late_reader_in.is_set()
        writer_release.set()
        assert late_reader_in.wait(timeout=5)
        writer.join()
        late_reader.join()

    def test_writer_acquires_under_saturating_readers(self):
        lock = RWLock()
        stop = threading.Event()
        acquired = threading.Event()

        def reader(_k):
            while not stop.is_set():
                with lock.read():
                    time.sleep(0.001)

        readers = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for thread in readers:
            thread.start()

        def writer():
            with lock.write():
                acquired.set()

        thread = threading.Thread(target=writer)
        try:
            thread.start()
            # Under reader-preference this times out: with six readers
            # overlapping, the reader count never reaches zero.
            assert acquired.wait(timeout=5.0), "writer starved by readers"
        finally:
            stop.set()
            thread.join()
            for reader_thread in readers:
                reader_thread.join()

    def test_reentrant_read_admitted_while_writer_waits(self):
        # A thread that already reads must be allowed to read again even
        # with a writer queued, else it deadlocks against itself.
        lock = RWLock()
        lock.acquire_read()
        writer = threading.Thread(target=lambda: (lock.acquire_write(),
                                                  lock.release_write()))
        writer.start()
        assert self.wait_for(lambda: lock.writers_waiting == 1)
        with lock.read():  # must not block
            pass
        lock.release_read()
        writer.join()

    def test_writer_wait_histogram_published(self):
        registry = MetricsRegistry()
        lock = RWLock(metrics=registry)
        release = threading.Event()
        reader_in = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert reader_in.wait(timeout=5)

        def writer():
            with lock.write():
                pass

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert self.wait_for(lambda: lock.writers_waiting == 1)
        time.sleep(0.01)  # make the contended wait measurable
        release.set()
        writer_thread.join()
        thread.join()

        histogram = registry.histogram("lock.writer_wait_ms")
        assert histogram is not None and histogram.count >= 1
        assert histogram.total > 0.0

    def test_uncontended_write_records_zero_wait(self):
        registry = MetricsRegistry()
        lock = RWLock(metrics=registry)
        with lock.write():
            pass
        histogram = registry.histogram("lock.writer_wait_ms")
        assert histogram is not None and histogram.count == 1
        assert histogram.total == 0.0


class TestContextPool:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ContextPool(0)

    def test_contexts_share_residency(self):
        pool = ContextPool(64)
        first = pool.acquire()
        second = pool.acquire()
        first.current_buffer.touch("page-A")
        # Already resident in the *shared* pool: the second context's
        # touch is a hit and charges nobody.
        assert second.current_buffer.touch("page-A") is False
        assert pool.stats.page_reads == 1
        assert first.stats.page_reads == 1
        assert second.stats.page_reads == 0

    def test_stress_invariants_hold(self):
        pool = ContextPool(32)
        clients = 8
        touches = 400

        def worker(k):
            rng = random.Random(k)
            with pool.context() as context:
                scope = context.current_buffer
                for i in range(touches):
                    page = f"page-{rng.randrange(200)}"
                    if rng.random() < 0.25:
                        scope.touch_write(page)
                    else:
                        scope.touch(page)
                    if i % 97 == 0:
                        pool.pool.check_invariants()

        run_threads(clients, worker)
        pool.pool.check_invariants()
        # Released contexts are retired; the invariant is asserted through
        # the accounting check (and published into the metrics registry).
        registry = MetricsRegistry()
        assert_misses_recorded(pool, registry)
        recorded = pool.stats
        assert gauge(registry, "accounting.recorded_reads") == recorded.page_reads
        assert gauge(registry, "accounting.recorded_writes") == recorded.page_writes
        assert pool.pool.hits + pool.pool.misses == clients * touches
        assert pool.pool.distinct_pages <= 32

    def test_recycling_reuses_worker_scopes(self):
        pool = ContextPool(16)
        with pool.context() as context:
            context.current_buffer.touch("page-A")
        assert pool.recycled == 1
        assert not pool.contexts  # retired, not live
        with pool.context() as context:
            # A later context never inherits a predecessor's counters.
            assert context.stats.page_reads == 0
            context.current_buffer.touch("page-B")
        assert pool.recycled == 2
        # Retired totals still cover both generations' charges.
        assert pool.stats.page_reads == 2
        assert assert_misses_recorded(pool, MetricsRegistry())["pool_misses"] == 2

    def test_a_touch_that_bypasses_every_context_breaks_accounting(self):
        pool = ContextPool(16)
        with pool.context() as context:
            context.current_buffer.touch("page-A")
        assert pool.check_accounting()["ok"] is True
        # Charged to the pool's own record, which no context holds.
        assert pool.pool.touch("page-B") is True
        accounting = pool.check_accounting()
        assert accounting == {
            "pool_misses": 2,
            "recorded_reads": 1,
            "recorded_writes": 0,
            "ok": False,
        }

    def test_occupancy_gauge_tracks_live_contexts(self):
        registry = MetricsRegistry()
        pool = ContextPool(8, metrics=registry)
        assert gauge(registry, "pool.occupancy") == 0
        with pool.context():
            assert gauge(registry, "pool.occupancy") == 1
        assert gauge(registry, "pool.occupancy") == 0
        assert gauge(registry, "pool.recycled") == 1

    def test_describe_is_json_able(self):
        import json

        pool = ContextPool(4)
        pool.acquire().current_buffer.touch("p")
        assert json.loads(json.dumps(pool.describe()))["capacity"] == 4

    def test_trace_export_under_concurrent_writers(self):
        # Every worker runs traced operations against the shared pool
        # while the others charge it concurrently, then exports its
        # context's counters and its thread's trace.  Per-worker rows
        # must reflect only that worker's charges, and the global
        # accounting invariant must hold when asserted through the
        # metrics registry.
        import json

        from repro.telemetry.tracing import Trace, activate

        registry = MetricsRegistry()
        pool = ContextPool(48, metrics=registry)
        clients, rounds = 6, 40
        traces: dict[int, dict] = {}

        def worker(k):
            rng = random.Random(k)
            trace = Trace(f"t-{k}", "worker", "test", sampled=True)
            with pool.context() as context, activate(trace):
                for i in range(rounds):
                    with context.operation(f"op-{k}") as buffer:
                        buffer.touch(f"page-{rng.randrange(120)}")
                        if rng.random() < 0.3:
                            buffer.touch_write(f"page-{rng.randrange(120)}")
                traces[k] = {**json.loads(json.dumps(context.to_dict())), **trace.as_dict()}

        run_threads(clients, worker)
        for k, trace in traces.items():
            assert trace["op_counts"][f"op-{k}"] == rounds
            assert len(trace["spans"]) == rounds
            # The worker's headline totals equal the sum of its spans —
            # concurrent charges by other workers never leak in.
            assert trace["page_reads"] == sum(
                s["page_reads"] for s in trace["spans"]
            )
            assert trace["page_writes"] == sum(
                s["page_writes"] for s in trace["spans"]
            )
        accounting = pool.check_accounting(registry)
        assert accounting["ok"] is True
        assert gauge(registry, "accounting.ok") == 1.0
        # The registry's span histograms saw every operation.
        total_spans = sum(
            registry.histogram("span.pages", op=f"op-{k}").count
            for k in range(clients)
        )
        assert total_spans == clients * rounds
        assert registry.counter_value("ops", op="op-0") == rounds


class TestConcurrentServing:
    def make_world(self, seed=0):
        generated = ChainGenerator(seed=seed).generate(SMALL)
        pool = ContextPool(128)
        manager = ASRManager(generated.db, context=pool.acquire())
        manager.create(generated.path, Extension.FULL)
        return generated, manager, pool

    def test_queries_and_updates_under_contention(self):
        generated, manager, pool = self.make_world()
        stream = operation_stream(generated, FIG14_MIX, count=120, seed=5)
        answers: dict[int, frozenset] = {}
        clients = 6

        def worker(k):
            with pool.context() as context:
                planner = Planner(manager)
                evaluator = QueryEvaluator(
                    generated.db, generated.store, context=context
                )
                for op in stream[k::clients]:
                    if op.kind == "query":
                        result = planner.execute(op.query, evaluator)
                        answers[op.index] = frozenset(result.cells)
                    else:
                        with manager.exclusive():
                            apply_update(generated, op)

        run_threads(clients, worker)
        manager.check_consistency()
        pool.pool.check_invariants()
        # Client contexts are retired on release; the manager's context is
        # still live.  Either way: pool misses == retired + Σ live.
        registry = MetricsRegistry()
        assert_misses_recorded(pool, registry)
        recorded = pool.stats
        assert gauge(registry, "accounting.recorded_reads") == recorded.page_reads
        assert gauge(registry, "accounting.recorded_writes") == recorded.page_writes
        # Every query answer matches the (post-run) single-threaded oracle
        # for queries the updates could not have affected: re-ask them all
        # now that the graph is quiescent and supported == unsupported.
        oracle = QueryEvaluator(generated.db, generated.store)
        for op in stream:
            if op.kind == "query":
                quiescent = oracle.evaluate_supported(op.query, manager.asrs[0])
                unsupported = oracle.evaluate_unsupported(op.query)
                assert quiescent.cells == unsupported.cells

    def test_quarantined_fallback_under_contention(self):
        generated, manager, pool = self.make_world(seed=9)
        injector = FaultInjector(seed=1)
        manager.fault_injector = injector
        asr = manager.asrs[0]
        stream = operation_stream(
            generated, FIG14_MIX, count=40, seed=2, query_fraction=1.0
        )

        # Crash one eager maintenance run mid-delta: the ASR quarantines.
        injector.crash_at("asr.apply.mid-delta")
        update = next(
            op for op in operation_stream(generated, FIG14_MIX, 40, 3, 0.0)
            if op.kind == "update"
        )
        with pytest.raises(SimulatedCrash):
            with manager.exclusive():
                apply_update(generated, update)
        assert asr.state is ASRState.QUARANTINED

        oracle = QueryEvaluator(generated.db, generated.store)
        expected = {
            op.index: frozenset(oracle.evaluate_unsupported(op.query).cells)
            for op in stream
        }
        degraded_answers: dict[int, frozenset] = {}

        def reader(k):
            with pool.context() as context:
                planner = Planner(manager)
                evaluator = QueryEvaluator(
                    generated.db, generated.store, context=context
                )
                for op in stream[k::4]:
                    result = planner.execute(op.query, evaluator)
                    degraded_answers[op.index] = frozenset(result.cells)

        run_threads(4, reader)
        assert degraded_answers == expected

        # Recovery is exclusive; a concurrent reader burst still answers.
        recover_error = []

        def recoverer(_k):
            try:
                manager.recover()
            except BaseException as error:  # noqa: BLE001
                recover_error.append(error)

        recovery = threading.Thread(target=recoverer, args=(0,))
        recovery.start()
        run_threads(4, reader)
        recovery.join()
        assert not recover_error
        assert asr.state is ASRState.CONSISTENT
        manager.check_consistency()
