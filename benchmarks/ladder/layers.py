"""The per-layer sheet: microbenchmarks of every layer, from outside.

Each function times calls into one layer's public functions on the
world a workload runs on, or reads counters the program publishes, and
returns ``{metric name: value}``.  The names are the vocabulary later
issues claim gains in: ``README.md`` lists which end-to-end metric, on
which workload, each one is expected to move.  Everything that mutates
the world undoes itself (paired ``ins_i``/``del_i``), so the sheet can
run before the end-of-run invariants.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

import adapter
from measure import percentile, time_each
from workloads import chain_block, http_get_json, http_post, metric_suffix

#: Stream operations of the FIG14 mix, in sheet order.
STREAM_OPS = ("Q0,4(bw)", "Q0,3(bw)", "Q1,2(fw)", "ins_2", "ins_3")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _sample(rng: random.Random, population, k: int) -> list:
    """Up to ``k`` distinct members (a smoke-scale world has fewer)."""
    population = list(population)
    return rng.sample(population, min(k, len(population)))


def counter_total(snapshot: dict, name: str) -> float:
    """A counter family's value summed over its label sets."""
    return sum(entry["value"] for entry in snapshot["counters"].get(name, ()))


def histogram_total(snapshot: dict, name: str) -> tuple[int, float]:
    """A histogram family's ``(count, sum)`` over its label sets."""
    family = snapshot["histograms"].get(name, ())
    return sum(e["count"] for e in family), sum(e["sum"] for e in family)


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------


def storage_sheet(world, rng: random.Random) -> dict:
    asr = world.manager.find(world.generated.path)[0]
    tree = asr.partitions[-1].forward_tree
    entries = list(tree.items())
    keys = [key for key, _ in entries]
    probes = _sample(rng, keys, 400)
    context = world.pool.acquire()
    try:
        search = time_each(lambda key: tree.search(key, context), probes, repeat=3)
        span = min(200, len(keys) - 1)
        starts = [rng.randrange(len(keys) - span) for _ in range(40)]

        def scan(at: int) -> None:
            for _ in tree.range(keys[at], keys[at + span], context):
                pass

        ranged = time_each(scan, starts, repeat=3) / span
        db, store = world.generated.db, world.generated.store
        objects = [
            (oid, db.type_of(oid)) for oid in _sample(rng, world.generated.layers[2], 400)
        ]
        access = time_each(
            lambda pair: store.access(pair[0], pair[1], context), objects, repeat=3
        )
    finally:
        world.pool.release(context)

    counted = adapter.AccessStats()
    unbuffered = adapter.NullBuffer(counted)
    for key in probes:
        tree.search(key, unbuffered)

    # Inserts and deletes run on a scratch copy of the tree, charged to a
    # scratch pool of the world's capacity: same shape, nothing to undo.
    scratch = adapter.BPlusTree.bulk_load(
        entries, tree.leaf_capacity, tree.interior_capacity
    )
    pool = adapter.SharedBufferPool(adapter.ThreadSafeAccessStats(), world.pool.capacity)
    scope = adapter.WorkerScope(pool, adapter.AccessStats())
    fresh = [(key[0], key[1] + ((9, 0),)) for key in _sample(rng, keys, 300)]
    insert = time_each(lambda key: scratch.insert(key, None, scope), fresh)
    delete = time_each(lambda key: scratch.delete(key, scope), fresh)
    pages = [("ladder", n) for n in range(min(512, world.pool.capacity))]
    for page in pages:
        scope.touch(page)
    touch = time_each(scope.touch, pages, repeat=5)
    return {
        "storage.btree.search_us": search * 1e6,
        "storage.btree.range_us_per_row": ranged * 1e6,
        "storage.btree.insert_us": insert * 1e6,
        "storage.btree.delete_us": delete * 1e6,
        "storage.btree.pages_per_search": counted.page_reads / len(probes),
        "storage.objectstore.access_us": access * 1e6,
        "storage.pool.touch_us": touch * 1e6,
    }


# ----------------------------------------------------------------------
# asr, and the serving core's update path
# ----------------------------------------------------------------------


def asr_lookup_sheet(world, rng: random.Random) -> dict:
    asr = world.manager.find(world.generated.path)[0]
    partition = asr.partitions[-1]
    # FULL keeps partial paths: a NULL end cell would fetch all of them.
    whole = (
        row
        for row in partition.rows()
        if row[0] is not adapter.NULL and row[-1] is not adapter.NULL
    )
    rows = _sample(rng, whole, 300)
    found: list[int] = []
    context = world.pool.acquire()
    try:
        forward = time_each(
            lambda row: found.append(len(partition.lookup_forward(row[0], context))), rows
        )
        backward = time_each(
            lambda row: found.append(len(partition.lookup_backward(row[-1], context))), rows
        )
    finally:
        world.pool.release(context)
    return {
        "asr.lookup_forward_us": forward * 1e6,
        "asr.lookup_backward_us": backward * 1e6,
        "asr.rows_per_lookup": _mean(found),
    }


def maintenance_sheet(world, driver_state, seed: int) -> dict:
    """Eager and batched maintenance through ``execute_operation``.

    ``driver_state`` is ``(context, planner, evaluator)``.  The eager
    pass also yields the serving core's per-``ins_i`` timings.
    """
    context, planner, evaluator = driver_state
    registry = world.registry
    eager = chain_block(world, seed ^ 0xEA6E, 40, 0.0)
    rows_before = counter_total(registry.snapshot(), "asr.maintenance.rows")
    timings: dict[str, list[float]] = {}
    for op in eager:
        started = time.perf_counter()
        adapter.execute(world, context, planner, evaluator, op)
        timings.setdefault(op.name, []).append(time.perf_counter() - started)
    rows = counter_total(registry.snapshot(), "asr.maintenance.rows") - rows_before
    every = [seconds for values in timings.values() for seconds in values]

    batched = chain_block(world, seed ^ 0xBA7C, 40, 0.0)
    elapsed = 0.0
    for kind in ("update", "delete"):  # all inserts in one batch, then all deletes
        started = time.perf_counter()
        with world.manager.exclusive(), world.manager.batch():
            for op in batched:
                if op.kind == kind:
                    adapter.execute(world, context, planner, evaluator, op)
        elapsed += time.perf_counter() - started
    sheet = {
        "asr.maintain_us_per_update": _mean(every) * 1e6,
        "asr.maintain_rows_per_update": rows / len(eager),
        "asr.maintain_batched_us_per_update": elapsed / len(batched) * 1e6,
    }
    for name in ("ins_2", "ins_3"):
        sheet[f"serve.execute_operation_us.{name}"] = _mean(timings.get(name, ())) * 1e6
    return sheet


def gom_unmaintained_sheet(world, seed: int) -> dict:
    """``set_insert`` with no ASR subscribed: call after ``manager.close()``.

    Maintenance is the difference to ``asr.maintain_us_per_update``.
    """
    db = world.generated.db
    inserts = [op for op in chain_block(world, seed ^ 0x60A1, 400, 0.0) if op.kind == "update"]
    sets = [(db.attr(op.owner, "A"), op.target) for op in inserts]
    insert = time_each(lambda pair: db.set_insert(*pair), sets)
    for pair in sets:
        db.set_remove(*pair)
    return {"gom.set_insert_us": insert * 1e6}


# ----------------------------------------------------------------------
# gom traversal, query, cost model
# ----------------------------------------------------------------------


def query_sheet(world, driver_state, block, rng: random.Random) -> dict:
    context, planner, evaluator = driver_state
    generated = world.generated
    db, path = generated.db, generated.path
    queries = [op for op in block if op.kind == "query"][:150]
    asked = [op.query for op in queries]

    # Naive evaluation over the object representation alone, with the
    # per-operation buffer the cost model assumes.
    unbuffered = adapter.QueryEvaluator(
        db, generated.store, context=adapter.ExecutionContext()
    )
    walks = [
        adapter.ForwardQuery(path, 0, path.n, start=oid)
        for oid in _sample(rng, generated.layers[0], 100)
    ]
    walk_pages: list[int] = []
    walk = time_each(
        lambda query: walk_pages.append(unbuffered.evaluate_unsupported(query).total_pages),
        walks,
    )

    registered = world.manager.find(path)[0]
    designs = {
        "nodec": adapter.AccessSupportRelation.build(db, path, adapter.Extension.FULL),
        "dec024": registered,
        "binary": adapter.AccessSupportRelation.build(
            db, path, adapter.Extension.FULL, adapter.Decomposition.binary(path.m)
        ),
    }
    sheet = {
        "gom.traverse_us": walk * 1e6,
        "gom.traverse_pages_per_op": _mean(walk_pages),
        "query.plan_us": time_each(planner.plan, asked, repeat=3) * 1e6,
    }
    costplanner = world.queries.planner
    costplanner.plan(asked[0])  # the first call measures and caches the profile
    sheet["query.costplan_us"] = time_each(costplanner.plan, asked, repeat=3) * 1e6
    result_rows: list[int] = []
    for label, asr in designs.items():
        sink = result_rows if label == "dec024" else []
        sheet[f"query.evaluate_supported_us.{label}"] = (
            time_each(
                lambda query: sink.append(len(evaluator.evaluate_supported(query, asr).cells)),
                asked,
            )
            * 1e6
        )
    sheet["query.rows_per_result"] = _mean(result_rows)
    sheet["query.evaluate_unsupported_us"] = (
        time_each(evaluator.evaluate_unsupported, asked[:20]) * 1e6
    )

    # The serving core per stream query, and the paper's measure beside
    # the seconds: predicted (Eqs. 31-34) and observed distinct pages.
    predictor = world.drift.predictor
    by_name: dict[str, list] = {}
    for op in queries:
        by_name.setdefault(op.name, []).append(op)
    for name in STREAM_OPS[:3]:
        ops = by_name.get(name, [])
        suffix = metric_suffix(name)
        sheet[f"serve.execute_operation_us.{suffix}"] = (
            time_each(
                lambda op: adapter.execute(world, context, planner, evaluator, op), ops
            )
            * 1e6
        )
        sheet[f"costmodel.predicted_pages.{suffix}"] = _mean(
            predictor.predict_query(op.query, registered) or 0.0 for op in ops
        )
        sheet[f"costmodel.observed_pages.{suffix}"] = _mean(
            planner.execute(op.query, unbuffered).total_pages for op in ops
        )
    return sheet


def update_pages_sheet(world, driver_state, seed: int) -> dict:
    """Predicted (section 6) and observed maintenance pages per ``ins_i``.

    Maintenance charges the manager's context; a fresh unbounded context
    per update gives the distinct pages the model prices, where the
    world's warm pool would charge none.
    """
    context, planner, evaluator = driver_state
    manager = world.manager
    registered = manager.find(world.generated.path)[0]
    predictor = world.drift.predictor
    observed: dict[str, list[int]] = {}
    levels: dict[str, int] = {}
    pooled = manager.context
    for op in chain_block(world, seed ^ 0xC057, 24, 0.0):
        if op.kind == "update":
            levels[op.name] = op.level
            with manager.exclusive():
                manager.context = adapter.ExecutionContext()
                try:
                    pages = adapter.execute(world, context, planner, evaluator, op)
                finally:
                    manager.context = pooled
            observed.setdefault(op.name, []).append(pages)
        else:
            adapter.execute(world, context, planner, evaluator, op)
    sheet = {}
    for name in STREAM_OPS[3:]:
        level = levels.get(name)
        predicted = None if level is None else predictor.predict_update(level, registered)
        sheet[f"costmodel.predicted_pages.{name}"] = predicted or 0.0
        sheet[f"costmodel.observed_pages.{name}"] = _mean(observed.get(name, ()))
    return sheet


# ----------------------------------------------------------------------
# concurrency, telemetry, context, device, async dispatch
# ----------------------------------------------------------------------


class _TimedWorkers(adapter.LadderWorkers):
    """Accumulates the seconds spent inside ``execute`` on the executor thread."""

    inner_s = 0.0

    def execute(self, op, trace=None) -> int:
        started = time.perf_counter()
        try:
            return super().execute(op, trace)
        finally:
            self.inner_s += time.perf_counter() - started


def plumbing_sheet(world, driver_state, block) -> dict:
    context, planner, evaluator = driver_state
    lock = adapter.RWLock()
    rounds = range(20000)

    def read(_n) -> None:
        lock.acquire_read()
        lock.release_read()

    def write(_n) -> None:
        lock.acquire_write()
        lock.release_write()

    def pooled(_n) -> None:
        with world.pool.context():
            pass

    registry = adapter.MetricsRegistry()
    scratch = world.pool.acquire()

    def operation(_n) -> None:
        with scratch.operation("ladder.noop"):
            pass

    try:
        sheet = {
            "concurrency.rwlock_read_us": time_each(read, rounds, repeat=3) * 1e6,
            "concurrency.rwlock_write_us": time_each(write, rounds, repeat=3) * 1e6,
            "concurrency.pool_context_us": time_each(pooled, range(2000), repeat=3) * 1e6,
            "telemetry.observe_us": time_each(
                lambda n: registry.observe("op.latency_ms", 1.5, op="Q0,4(bw)", kind="query"),
                rounds,
                repeat=3,
            )
            * 1e6,
            "telemetry.inc_us": time_each(
                lambda n: registry.inc("serve.ops", op="Q0,4(bw)", kind="query"),
                rounds,
                repeat=3,
            )
            * 1e6,
            "context.operation_us": time_each(operation, range(5000), repeat=3) * 1e6,
        }
    finally:
        world.pool.release(scratch)

    # The tracer at sample rate 1.0 against off, on the same questions.
    queries = [op for op in block if op.kind == "query"][:300]
    tracer = adapter.Tracer(adapter.MetricsRegistry(), sample_rate=1.0)

    def traced(op) -> None:
        trace = tracer.begin(op.name, op.kind)
        with adapter.activate(trace):
            adapter.execute_operation(world, context, planner, evaluator, op, trace=trace)
        tracer.finish(trace)

    def untraced(op) -> None:
        adapter.execute_operation(world, context, planner, evaluator, op)

    off = time_each(untraced, queries, repeat=3)
    on = time_each(traced, queries, repeat=3)
    sheet["telemetry.trace_tax_pct"] = (on - off) / off * 100.0

    # Event loop + executor hop with a free device: outer minus inner.
    device = adapter.DeviceModel(adapter.FixedLatency(0.0))
    workers = _TimedWorkers(world, 1)

    async def hops() -> tuple[float, float]:
        started = time.perf_counter()
        for op in queries:
            await adapter.drive_operation_async(world, workers, op, device)
        driven = time.perf_counter() - started
        started = time.perf_counter()
        for _ in rounds:
            await device.acharge(1)
        return driven, time.perf_counter() - started

    try:
        driven, charged = asyncio.run(hops())
    finally:
        workers.close()
    sheet["serve.async_dispatch_us"] = (driven - workers.inner_s) / len(queries) * 1e6
    sheet["device.acharge_overhead_us"] = charged / len(rounds) * 1e6
    return sheet


# ----------------------------------------------------------------------
# the textual pipeline and the HTTP front door
# ----------------------------------------------------------------------


def text_sheet(world, requests) -> dict:
    """Parse to serialize on the ``payload`` world, in process."""
    db = world.generated.db
    service = world.queries
    texts = list(dict.fromkeys(request.text for request in requests))[:100]
    normal = [adapter.normalize_query(text) for text in texts]
    statements = [adapter.parse_select(text) for text in normal]
    cache = adapter.CompiledPlanCache(128, registry=adapter.MetricsRegistry())
    with world.pool.context() as context:
        executor = adapter.SelectExecutor(
            db,
            service.planner,
            evaluator=adapter.QueryEvaluator(db, world.generated.store, context=context),
        )
        compiled = [executor.compile(statement) for statement in statements]
        for text, plan in zip(normal, compiled):
            cache.put(text, 0, plan)
        sheet = {
            "query.parse_us": time_each(adapter.parse_select, normal, repeat=3) * 1e6,
            "query.validate_us": time_each(
                lambda statement: adapter.validate_select(statement, db), statements, repeat=3
            )
            * 1e6,
            "query.compile_us": time_each(executor.compile, statements) * 1e6,
            "query.cache_probe_us": time_each(
                lambda text: cache.get(text, 0), normal, repeat=5
            )
            * 1e6,
            "query.run_compiled_us": time_each(executor.run_compiled, compiled) * 1e6,
        }
        # First sight of a text compiles it; the second finds the plan.
        spent = {False: [], True: []}
        outcomes = []
        for _ in range(2):
            for text in texts:
                started = time.perf_counter()
                outcome = service.execute(text, context=context)
                spent[outcome.cached].append(time.perf_counter() - started)
                outcomes.append(outcome)
    sheet["query.service_execute_us.miss"] = _mean(spent[False]) * 1e6
    sheet["query.service_execute_us.hit"] = _mean(spent[True]) * 1e6
    sheet["server.serialize_us"] = (
        time_each(lambda outcome: json.dumps(outcome.payload(), indent=2), outcomes) * 1e6
    )
    return sheet


def http_sheet(address, requests) -> dict:
    """One sequential client against the daemon child."""
    requests = requests[:100]
    before = histogram_total(http_get_json(address, "/stats")["metrics"], "query.latency_ms")
    received = 0
    started = time.perf_counter()
    for request in requests:
        _status, data = http_post(address, request.body)
        received += len(data)
    round_trip_ms = (time.perf_counter() - started) / len(requests) * 1e3
    after = histogram_total(http_get_json(address, "/stats")["metrics"], "query.latency_ms")
    served = max(1, after[0] - before[0])
    return {
        "server.http_overhead_ms": round_trip_ms - (after[1] - before[1]) / served,
        "server.response_bytes_per_op": received / len(requests),
    }


# ----------------------------------------------------------------------
# what the traced window itself shows
# ----------------------------------------------------------------------


def window_sheet(workload, untraced, traced, before: dict, after: dict, recorder, kinds) -> dict:
    """Counters and spans of the traced window.

    ``before``/``after`` are registry snapshots around it (the daemon's
    ``GET /stats`` on ``select-http``); ``kinds`` maps an op index of
    the block to its kind.  ``untraced`` is the window run just before
    with tracing off: the gap between the two is the tracing overhead,
    and update latencies are quoted from the untraced one.
    """

    def counted(name: str) -> float:
        return counter_total(after, name) - counter_total(before, name)

    def observed(name: str) -> tuple[int, float]:
        """Observations and their sum that a histogram gained."""
        old, new = histogram_total(before, name), histogram_total(after, name)
        return new[0] - old[0], new[1] - old[1]

    ops = max(1, traced.ops)
    touches = traced.pool_delta("hits") + traced.pool_delta("misses")
    cache_hits, cache_misses = counted("query.cache.hits"), counted("query.cache.misses")
    waits, wait_ms = observed("lock.writer_wait_ms")
    _charges, charge_ms = observed("device.charge_ms")
    _served, served_ms = observed("query.latency_ms")
    writer_wait_ms = wait_ms / waits if waits else 0.0

    # Per driver: the span a caller opens per op, the spans of the layer
    # below it, and the span that holds the write lock on an update.
    root, below_names, core = {
        "serial": (
            "serve.execute_operation",
            ("query.evaluate_supported", "query.evaluate_unsupported"),
            "serve.execute_operation",
        ),
        "async": (
            "serve.drive_operation_async",
            ("serve.worker.execute", "device.acharge"),
            "serve.worker.execute",
        ),
        "http": ("server.post_query", (), None),
    }[workload.driver]
    roots = recorder.durations(root)
    covered = sum(seconds for _op, seconds in roots)
    if workload.driver == "serial":
        # Updates never reach the evaluator: compare query roots only.
        roots = [(op, seconds) for op, seconds in roots if kinds[op] == "query"]
    above = sum(seconds for _op, seconds in roots)
    below = sum(seconds for name in below_names for _op, seconds in recorder.durations(name))
    if workload.driver == "http":
        # No span below the socket lives in this process; the daemon
        # publishes its own service time.
        below = served_ms / 1e3
    holds = [
        seconds for op, seconds in recorder.durations(core) if kinds[op] != "query"
    ] if core else []
    busy = workload.callers * traced.wall_s
    base = untraced.ops / untraced.wall_s
    update_ms = sorted(seconds * 1e3 for seconds in untraced.latencies("update", "delete"))
    return {
        "storage.pool.hit_rate": traced.pool_delta("hits") / touches if touches else 0.0,
        "storage.pool.evictions_per_op": traced.pool_delta("evictions") / ops,
        "query.cache_hit_rate": (
            cache_hits / (cache_hits + cache_misses) if cache_hits + cache_misses else 0.0
        ),
        "concurrency.writer_wait_ms": writer_wait_ms,
        "concurrency.write_hold_ms": max(0.0, _mean(holds) * 1e3 - writer_wait_ms),
        "device.charge_ms_per_op": charge_ms / ops,
        "device.pages_per_op": counted("device.pages") / ops,
        "serve.overhead_us_per_op": max(0.0, above - below) / max(1, len(roots)) * 1e6,
        "serve.unattributed_pct": max(0.0, busy - covered) / busy * 100.0,
        "serve.trace_overhead_pct": (base - traced.ops / traced.wall_s) / base * 100.0,
        "serve.update_p50_ms": percentile(update_ms, 0.50),
        "serve.update_p95_ms": percentile(update_ms, 0.95),
    }
