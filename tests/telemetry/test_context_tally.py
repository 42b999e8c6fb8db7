"""A query publishes to its own context; the registry reads the tallies.

An :class:`~repro.context.ExecutionContext` with a registry keeps
``ops{op}``, ``span.pages{op}`` and its labelled counts in a
thread-confined :class:`~repro.context.Tally`.  The registry adds the
live tallies to every read, folds a tally in once when its context
closes, and keeps no closed context alive.  These tests hold that
lifecycle, reads racing eight publishing threads, and the claim the
model exists for: a block of planner queries never takes the
registry's lock.
"""

import gc
import sys
import threading
import weakref

from repro.asr import ASRManager, Decomposition, Extension
from repro.concurrency import ContextPool
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator
from repro.resilience import BreakerBoard
from repro.telemetry import DriftMonitor, MetricsRegistry
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(20, 60, 180, 540),
    d=(18, 54, 160),
    fan=(3, 3, 3),
    size=(400, 300, 200, 100),
)


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


def world():
    """A small served chain: db, path, layers, store, manager, ASR."""
    generated = ChainGenerator(seed=53).generate(PROFILE)
    manager = ASRManager(generated.db)
    path = generated.path
    asr = manager.create(
        path,
        Extension.FULL,
        Decomposition.of(*(path.column_of(i) for i in (0, 2, path.n))),
    )
    return generated, manager, asr


def queries(generated, k: int) -> list:
    path, layers = generated.path, generated.layers
    return [
        BackwardQuery(path, 0, path.n, target=layers[path.n][k % len(layers[path.n])]),
        BackwardQuery(path, 0, 2, target=layers[2][k % len(layers[2])]),
        ForwardQuery(path, 1, 2, start=layers[1][k % len(layers[1])]),
    ]


def ops(registry, op: str) -> float:
    return registry.counter_value("ops", op=op)


class TestLifecycle:
    def test_counts_survive_release(self):
        registry = MetricsRegistry()
        pool = ContextPool(16, metrics=registry)
        with pool.context() as context:
            context.count("a", 3)
            with context.measure("probe") as measured:
                measured.buffer.touch("page-1")
            assert ops(registry, "a") == 3  # live: read from the tally
        assert ops(registry, "a") == 3  # folded at release
        assert ops(registry, "probe") == 1
        state = registry.histogram("span.pages", op="probe")
        assert state.count == 1 and state.total == 1

    def test_an_exit_hooks_counts_are_folded(self):
        registry = MetricsRegistry()
        context = ExecutionContext(metrics=registry)

        def flush():
            for _ in range(3):
                with context.measure("flush"):
                    pass

        context.add_exit_hook(flush)
        registry._lock = lock = CountingLock()
        context.close()
        assert lock.acquired == 1  # one fold, after the hook: nothing pushed
        assert context.op_counts == {"flush": 3}
        assert ops(registry, "flush") == 3
        assert registry.histogram("span.pages", op="flush").count == 3

    def test_a_closed_context_that_counts_again_still_publishes(self):
        registry = MetricsRegistry()
        context = ExecutionContext(metrics=registry)
        series = registry.series("asr.lookups", extension="full", decomposition="d")
        context.count("a")
        context.count_series(series)
        context.close()
        context.count("a", 2)
        context.count_series(series, 4)
        with context.measure("late"):
            pass
        assert context.op_counts == {"a": 3, "late": 1}
        assert ops(registry, "a") == 3
        assert registry.counter_value(
            "asr.lookups", extension="full", decomposition="d"
        ) == 5
        assert registry.histogram("span.pages", op="late").count == 1

    def test_a_dropped_never_closed_context_loses_nothing(self):
        registry = MetricsRegistry()
        context = ExecutionContext(metrics=registry)
        context.count("a", 7)
        with context.measure("probe"):
            pass
        alive = weakref.ref(context)
        del context
        gc.collect()
        assert alive() is None  # the registry holds the tally, not the context
        assert ops(registry, "a") == 7
        assert registry.histogram("span.pages", op="probe").count == 1

    def test_the_registry_holds_no_released_context(self):
        registry = MetricsRegistry()
        pool = ContextPool(16, metrics=registry)
        released = []
        for k in range(1000):
            context = pool.acquire()
            context.count("cycle")
            context.count(f"op-{k % 7}")
            pool.release(context)
            released.append(weakref.ref(context))
        del context
        gc.collect()
        assert not registry._tallies
        assert not [ref for ref in released if ref() is not None]
        assert ops(registry, "cycle") == 1000
        assert sum(ops(registry, f"op-{k}") for k in range(7)) == 1000


def monotone(before: dict, after: dict) -> list:
    """Every series of ``before`` that shrank or vanished in ``after``."""
    shrunk = []
    for name, entries in before["counters"].items():
        later = {
            tuple(sorted(e["labels"].items())): e["value"]
            for e in after["counters"].get(name, ())
        }
        for entry in entries:
            key = tuple(sorted(entry["labels"].items()))
            if later.get(key, -1) < entry["value"]:
                shrunk.append((name, key))
    for name, entries in before["histograms"].items():
        later = {
            tuple(sorted(e["labels"].items())): e
            for e in after["histograms"].get(name, ())
        }
        for entry in entries:
            key = tuple(sorted(entry["labels"].items()))
            other = later.get(key)
            if other is None or other["count"] < entry["count"] or (
                other["sum"] < entry["sum"]
            ):
                shrunk.append((name, key))
    return shrunk


def torn(snapshot: dict) -> list:
    """Histograms whose cumulative buckets exceed their count."""
    return [
        (name, entry["labels"])
        for name, entries in snapshot["histograms"].items()
        for entry in entries
        if sum(bucket["count"] for bucket in entry["buckets"]) > entry["count"]
    ]


def test_reads_race_eight_publishing_threads():
    generated, manager, _asr = world()
    registry = MetricsRegistry()
    pool = ContextPool(64, metrics=registry)
    planner = Planner(manager, drift=DriftMonitor(manager.costs, registry))
    workers, rounds = 8, 60
    contexts: dict[int, ExecutionContext] = {}
    done = threading.Event()
    snapshots: list[dict] = []

    def read():
        while not done.is_set():
            snapshots.append(registry.snapshot())

    def work(k):
        context = contexts[k] = pool.acquire()
        evaluator = QueryEvaluator(generated.db, generated.store, context=context)
        for i in range(rounds):
            for query in queries(generated, k * rounds + i):
                planner.execute(query, evaluator)

    errors: list[BaseException] = []

    def guarded(k):
        try:
            work(k)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(workers)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave reads with half-done bumps
    try:
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        reader.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not [t for t in threads + [reader] if t.is_alive()], "a thread hung"
    assert not errors, errors[0]
    assert len(snapshots) >= 2
    for before, after in zip(snapshots, snapshots[1:]):
        assert not monotone(before, after)
    for snapshot in snapshots:
        assert not torn(snapshot)

    expected: dict[str, int] = {}
    for context in contexts.values():
        for op, n in context.op_counts.items():
            expected[op] = expected.get(op, 0) + n

    def published(snapshot):
        return {
            e["labels"]["op"]: e["value"] for e in snapshot["counters"]["ops"]
        }

    live = registry.snapshot()
    assert published(live) == expected
    assert not monotone(snapshots[-1], live)
    pages = live["histograms"]["span.pages"]
    assert sum(e["count"] for e in pages) == workers * rounds * 3
    for context in contexts.values():
        pool.release(context)
    folded = registry.snapshot()
    assert published(folded) == expected
    assert folded["histograms"] == live["histograms"]
    assert folded["counters"] == live["counters"]


def test_planner_queries_never_take_the_registry_lock():
    generated, manager, asr = world()
    registry = MetricsRegistry()
    context = ExecutionContext(metrics=registry)
    board = BreakerBoard(registry=registry)
    planner = Planner(
        manager, drift=DriftMonitor(manager.costs, registry), breakers=board
    )
    evaluator = QueryEvaluator(generated.db, generated.store, context=context)
    for query in queries(generated, 0):
        planner.execute(query, evaluator)  # warm: every series key built
    registry_lock, breaker_lock = CountingLock(), CountingLock()
    registry._lock = registry_lock
    board.breaker_for(asr)._lock = breaker_lock
    plans = []
    for k in range(1, 40):
        for query in queries(generated, k):
            planner.execute(query, evaluator)
            plans.append(planner.plan(query))
    assert any(plan.asr is not None for plan in plans)
    assert registry_lock.acquired == 0
    assert breaker_lock.acquired == 0  # a closed breaker answers unlocked
    # Reading takes it, and sees every query.
    assert sum(
        ops(registry, op) for op in ("plan.supported", "plan.unsupported")
    ) == 3 * 40
    assert registry_lock.acquired > 0
