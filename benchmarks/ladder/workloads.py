"""The four workloads: their op blocks and their closed-loop drivers.

Every load is a closed loop — each caller waits for its reply, which is
what the replay cores and an HTTP client do — and client counts never
exceed the two cores of the reference box.  A workload replays one
seeded, fixed *block* of operations cyclically for ``--seconds`` after a
fixed warm-up block.  Inside a block every ``ins_i`` is undone by a
later ``del_i``, so the graph ends each cycle the size it started and
latency cannot drift with a growing world.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import itertools
import json
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import adapter
from measure import SpanRecorder, fastest_repeats
from worlds import POOL_FITS, POOL_SMALL


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world: str  # "chain" | "payload"
    driver: str  # "serial" | "async" | "http"
    capacity: int
    clients: int
    #: Share of the block that is queries; the rest is paired ins/del.
    query_share: float
    #: Operations per block.  A one-caller window takes each position's
    #: fastest repetition, so the block must come round many times in a
    #: window: ten times or more at this commit, still five on a box at
    #: half speed.  It needs no more bindings of a kind than settle that
    #: kind's median, because the order of the kinds is not the seed's.
    block_ops: int
    warm_ops: int
    io_micros: float = 0.0

    @property
    def callers(self) -> int:
        """Closed-loop callers that each keep one operation in flight."""
        return ASYNC_INFLIGHT if self.driver == "async" else self.clients


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read-cpu",
            why="1 client, device off, pool fits: all time is interpreted Python in "
            "asr/query/context/telemetry; pool, device and HTTP work must show nothing",
            world="chain",
            driver="serial",
            capacity=POOL_FITS,
            clients=1,
            query_share=1.0,
            block_ops=500,
            warm_ops=200,
        ),
        Workload(
            name="update-steady",
            why="same world and driver, half the ops paired ins_i/del_i: the asr layer "
            "used the other way, where a read gain bought with heavier partitions costs",
            world="chain",
            driver="serial",
            capacity=POOL_FITS,
            clients=1,
            query_share=0.5,
            block_ops=120,
            warm_ops=60,
        ),
        Workload(
            name="mixed-device",
            why="128-page pool (~8% of the world), 500us/page device, async core with "
            "4 in flight: page misses x device time and write-lock holds set the clock",
            world="chain",
            driver="async",
            capacity=POOL_SMALL,
            clients=2,
            query_share=0.9,
            block_ops=1000,
            warm_ops=200,
            io_micros=500.0,
        ),
        Workload(
            name="select-http",
            why="POST /query over real sockets to a daemon child, hot and cold texts: "
            "the only path paying parser, validator, plan cache, JSON and HTTP",
            world="payload",
            driver="http",
            capacity=POOL_FITS,
            clients=1,
            query_share=1.0,
            block_ops=1000,
            warm_ops=500,
        ),
    )
}

#: In-flight bound of the async core's closed loop (its 2 executor
#: threads overlap CPU with the other operations' device waits).
ASYNC_INFLIGHT = 4
#: Pairs whose ``del_i`` is still outstanding at any point of a block.
PAIR_LAG = 4
#: ``select-range`` literals are among this many of the largest values.
RANGE_TOP = 32
#: Seeds the order of the kinds inside a block, whatever ``--seed`` is.
#: What a query costs depends on what ran before it (the one after an
#: update re-plans against a new epoch), so a block whose order moved
#: with the seed moved every latency metric with it: 14% on
#: ``query_p50_ms`` of ``update-steady``.  ``--seed`` picks the objects.
SHAPE_SEED = 14


# ----------------------------------------------------------------------
# op blocks
# ----------------------------------------------------------------------


def metric_suffix(op_name: str) -> str:
    """``Q0,4(bw)`` -> ``Q0-4bw`` (metric names allow no comma or bracket)."""
    return op_name.replace(",", "-").replace("(", "").replace(")", "")


def _apportion(total: int, weights) -> list[int]:
    """``total`` split by ``weights`` exactly (largest remainders round up).

    A block's composition is a function of its size alone: drawing each
    operation's kind at random made the share of the expensive kinds,
    and with it every metric, wander with the seed.
    """
    weights = list(weights)
    exact = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(range(len(exact)), key=lambda k: exact[k] - counts[k], reverse=True)
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def _bind_insert(world, rng: random.Random, level: int, used: set, index: int):
    """A real ``ins_i``: the target is not yet a member, so its delete undoes it."""
    generated = world.generated
    db = generated.db
    while True:
        owner = rng.choice(generated.layers[level])
        target = rng.choice(generated.layers[level + 1])
        members = db.attr(owner, "A")
        if members is adapter.NULL or (level, owner, target) in used:
            continue
        if target in db.members(members):
            continue
        used.add((level, owner, target))
        return adapter.Operation(
            index, f"ins_{level}", "update", level=level, owner=owner, target=target
        )


def chain_block(world, seed: int, size: int, query_share: float) -> list:
    """``size`` bound operations: FIG14 queries and paired ``ins_i``/``del_i``.

    The kinds appear in exactly the mix's proportions and in an order
    that is the workload's (:data:`SHAPE_SEED`); ``seed`` binds their
    objects.  The shipped ``operation_stream`` binds the queries; it has
    no deletions, so the pairs are bound here.  Each ``del_i`` follows
    its ``ins_i`` by :data:`PAIR_LAG` other pairs, and every pair closes
    inside the block.
    """
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    mix = adapter.FIG14_MIX
    pairs = round(size * (1.0 - query_share) / 2)
    shares = _apportion(size - 2 * pairs, (weight for weight, _spec in mix.queries))
    bound = [
        adapter.operation_stream(
            world.generated,
            replace(mix, queries=((1.0, spec),)),
            count=count,
            seed=seed + k,
            query_fraction=1.0,
        )
        for k, (count, (_weight, spec)) in enumerate(zip(shares, mix.queries))
    ]
    specs = [k for k, count in enumerate(shares) for _ in range(count)]
    levels = [
        spec.i
        for count, (_weight, spec) in zip(
            _apportion(pairs, (weight for weight, _spec in mix.updates)), mix.updates
        )
        for _ in range(count)
    ]
    kinds = ["query"] * len(specs) + ["update"] * (2 * pairs)
    for shuffled in (specs, levels, kinds):
        shape.shuffle(shuffled)
    block, pending, used = [], deque(), set()
    for index, kind in enumerate(kinds):
        if kind == "query":
            block.append(replace(bound[specs.pop()].pop(), index=index))
        elif levels and len(pending) < PAIR_LAG:
            op = _bind_insert(world, rng, levels.pop(), used, index)
            pending.append(op)
            block.append(op)
        else:
            block.append(adapter.delete_operation(pending.popleft(), index))
    assert not pending, "every insert of a block must be undone inside it"
    return block


@dataclass(frozen=True)
class Request:
    """One ``POST /query`` of the select block."""

    index: int
    name: str
    text: str
    body: bytes
    kind: str = "query"


def select_block(world, seed: int, size: int) -> list[Request]:
    """Select texts over the Payload path.

    70% equality, 20% range, 10% projection; 80% of each shape's
    literals come from a hot set (64 values; 8 for ranges), the rest
    uniformly from the shape's domain, so the plan cache sees both hits
    and misses.  The shares are exact and their order is the workload's
    (:data:`SHAPE_SEED`); the literals are seeded.

    A range is ``>= v`` with ``v`` among the top :data:`RANGE_TOP` stored
    values, so it returns about thirty rows at most.  The language has
    no bounded two-sided range: ``>= lo and < hi`` is two half-open
    scans intersected, and ``< hi`` starts below NULL, so it returns
    every ``T0`` object with a dangling path (~830 rows and ~20 ms here,
    whatever ``hi`` is) and would make this workload a B+ tree scan.
    """
    generated = world.generated
    db = generated.db
    rng = random.Random(seed)
    hops = ".".join(["A"] * generated.n + ["Payload"])
    values = sorted({db.attr(oid, "Payload") for oid in generated.layers[generated.n]})
    hot = rng.sample(range(len(values)), min(64, len(values)))
    top = range(max(0, len(values) - RANGE_TOP), len(values))
    hot_top = rng.sample(top, min(8, len(top)))
    strata = [
        (shape, is_hot, share * within)
        for shape, share in (("select-eq", 0.7), ("select-range", 0.2), ("select-proj", 0.1))
        for is_hot, within in ((True, 0.8), (False, 0.2))
    ]
    counts = _apportion(size, (weight for _shape, _is_hot, weight in strata))
    drawn = [
        (shape, is_hot)
        for (shape, is_hot, _weight), count in zip(strata, counts)
        for _ in range(count)
    ]
    random.Random(SHAPE_SEED).shuffle(drawn)
    block = []
    for index, (name, is_hot) in enumerate(drawn):
        if name == "select-range":
            at = rng.choice(hot_top) if is_hot else rng.choice(top)
            text = f"select x from x in extent(T0) where x.{hops} >= {values[at]}"
        else:
            at = rng.choice(hot) if is_hot else rng.randrange(len(values))
            chosen = "x" if name == "select-eq" else f"x, x.{hops}"
            text = f"select {chosen} from x in extent(T0) where x.{hops} = {values[at]}"
        block.append(Request(index, name, text, json.dumps({"query": text}).encode("utf-8")))
    return block


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


@dataclass
class Window:
    """What one timed window produced."""

    #: Whether a block position costs the same on every cycle (one
    #: caller, so the order and the program's state repeat): timings are
    #: then taken from each position's fastest repetition.  With several
    #: operations in flight a latency includes waiting for the others,
    #: which is what that workload measures, and every sample counts.
    repeatable: bool = True
    wall_s: float = 0.0
    #: ``(op name, op kind, seconds, block position)`` per operation.
    samples: list = field(default_factory=list)
    failed: int = 0
    #: Pool counters at window start, after the first cycle, at the end.
    pool_start: dict = field(default_factory=dict)
    pool_counted: dict | None = None
    counted_ops: int = 0
    pool_end: dict = field(default_factory=dict)
    #: select-http: ``(request, row_count)`` of every 50th reply.
    sampled_rows: list = field(default_factory=list)
    response_bytes: int = 0

    @property
    def ops(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def timed(self) -> list:
        """The samples the timing metrics are statistics of."""
        return fastest_repeats(self.samples) if self.repeatable else self.samples

    def latencies(self, *kinds: str) -> list[float]:
        return [sample[2] for sample in self.timed if sample[1] in kinds]

    def by_name(self, *kinds: str, every: bool = False) -> dict[str, list[float]]:
        """Latencies of the given kinds, grouped by operation name.

        ``every`` takes all samples in completion order, not ``timed``.
        """
        grouped: dict[str, list[float]] = {}
        for name, kind, seconds, _position in self.samples if every else self.timed:
            if kind in kinds:
                grouped.setdefault(name, []).append(seconds)
        return grouped

    def ops_per_s(self) -> float:
        """Completions per second at the workload's callers.

        One caller: the reciprocal of the mean ``timed`` latency (the
        caller does nothing between a reply and its next request).
        Several in flight: completions over the window's wall time.
        """
        if self.repeatable:
            return len(self.timed) / sum(sample[2] for sample in self.timed)
        return self.ops / self.wall_s

    def touches_per_op(self) -> float:
        """Pool hits + misses per op over the first cycle.

        A fixed sequence from a fixed state, so with one caller it
        repeats exactly however far the window got.
        """
        end, ops = self.pool_counted, self.counted_ops
        if end is None:  # the window ended inside its first cycle
            end, ops = self.pool_end, self.ops
        touched = (end["hits"] + end["misses"]) - (
            self.pool_start["hits"] + self.pool_start["misses"]
        )
        return touched / max(1, ops)

    def pool_delta(self, key: str) -> float:
        return self.pool_end[key] - self.pool_start[key]


def _pair_key(op):
    return (op.level, op.owner, op.target)


def _open_deletes(block, position: int, open_pairs: set) -> list:
    """The ``del_i`` a window that stopped at ``position`` still owes."""
    rest = block[position % len(block) :] if position % len(block) else []
    return [op for op in rest if op.kind == "delete" and _pair_key(op) in open_pairs]


class _PlannerProxy:
    """Times ``Planner.execute`` from the seam ``execute_operation`` offers."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner, self.recorder = inner, recorder

    def execute(self, query, evaluator, trace=None):
        with self.recorder.span("query.planner.execute"):
            return self.inner.execute(query, evaluator, trace=trace)


class _EvaluatorProxy:
    """Times the evaluator calls the planner makes."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner, self.recorder = inner, recorder
        self.context = inner.context

    def evaluate_supported(self, query, asr):
        with self.recorder.span("query.evaluate_supported"):
            return self.inner.evaluate_supported(query, asr)

    def evaluate_unsupported(self, query):
        with self.recorder.span("query.evaluate_unsupported"):
            return self.inner.evaluate_unsupported(query)


class SerialDriver:
    """One client calling ``execute_operation`` in a loop (the replay core)."""

    def __init__(self, world, recorder: SpanRecorder | None = None) -> None:
        self.world = world
        self.recorder = recorder
        self.context = world.pool.acquire()
        self.planner = adapter.Planner(
            world.manager, drift=world.drift, breakers=world.breakers
        )
        self.evaluator = adapter.QueryEvaluator(
            world.generated.db, world.generated.store, context=self.context
        )
        if recorder is not None:
            self.traced_planner = _PlannerProxy(self.planner, recorder)
            self.traced_evaluator = _EvaluatorProxy(self.evaluator, recorder)
        self.open_pairs: set = set()
        self._owed: list = []

    def _call(self, op, traced: bool) -> None:
        world, context = self.world, self.context
        if not traced:
            adapter.execute(world, context, self.planner, self.evaluator, op)
        else:
            with self.recorder.span("serve.execute_operation", op=op.index):
                adapter.execute(
                    world, context, self.traced_planner, self.traced_evaluator, op
                )
        if op.kind == "update":
            self.open_pairs.add(_pair_key(op))
        elif op.kind == "delete":
            self.open_pairs.discard(_pair_key(op))

    def warm(self, block) -> None:
        for op in block:
            self._call(op, traced=False)

    def run(self, block, seconds: float, traced: bool = False) -> Window:
        window = Window(pool_start=adapter.pool_counters(self.world))
        samples, size, position = window.samples, len(block), 0
        started = now = time.perf_counter()
        deadline = started + seconds
        while now < deadline:
            op = block[position % size]
            before = time.perf_counter()
            self._call(op, traced)
            now = time.perf_counter()
            samples.append((op.name, op.kind, now - before, op.index))
            position += 1
            if position == size:
                window.pool_counted = adapter.pool_counters(self.world)
                window.counted_ops = size
        window.wall_s = now - started
        window.pool_end = adapter.pool_counters(self.world)
        self._owed = _open_deletes(block, position, self.open_pairs)
        return window

    def drain(self) -> None:
        """Undo the inserts a window that stopped mid-block left open."""
        for op in self._owed:
            self._call(op, traced=False)
        self._owed = []
        assert not self.open_pairs, "a block's pairs must all close"

    def close(self) -> None:
        self.world.pool.release(self.context)


class _TracedWorkers(adapter.LadderWorkers):
    """Spans the executor-thread half; the loop half passes the parent."""

    def __init__(self, world, max_workers: int, recorder: SpanRecorder) -> None:
        super().__init__(world, max_workers)
        self.recorder = recorder
        #: op index -> root span id, set on the loop before the hop
        #: (``run_in_executor`` carries no context variables across).
        self.parents: dict[int, int] = {}

    def execute(self, op, trace=None) -> int:
        parent = self.parents.get(op.index)
        if parent is None:
            return super().execute(op, trace)
        with self.recorder.span("serve.worker.execute", op=op.index, parent=parent):
            return super().execute(op, trace)


class _DeviceProxy:
    """Times ``acharge`` from the seam ``drive_operation_async`` offers."""

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner, self.recorder = inner, recorder

    async def acharge(self, pages: int, trace=None) -> float:
        with self.recorder.span("device.acharge"):
            return await self.inner.acharge(pages, trace=trace)


class AsyncDriver:
    """The async core: ``ExecutorWorkers`` + ``drive_operation_async``."""

    def __init__(self, world, threads: int, recorder: SpanRecorder | None = None) -> None:
        self.world = world
        self.recorder = recorder
        self.device = world.config.device(world.registry)
        if recorder is None:
            self.workers = adapter.LadderWorkers(world, threads)
        else:
            self.workers = _TracedWorkers(world, threads, recorder)
        self.open_pairs: set = set()
        self._owed: list = []

    async def _one(self, op, inserted: dict, window: Window | None, traced: bool) -> None:
        key = _pair_key(op) if op.kind != "query" else None
        if op.kind == "delete" and key in inserted:
            # Its insert may still be queued for the write lock; a
            # caller cannot undo what has not happened yet.
            await inserted.pop(key).wait()
        elif op.kind == "update":
            inserted[key] = asyncio.Event()
        before = time.perf_counter()
        if traced:
            recorder = self.recorder
            with recorder.span("serve.drive_operation_async", op=op.index) as root:
                self.workers.parents[op.index] = root
                await adapter.drive_operation_async(
                    self.world, self.workers, op, _DeviceProxy(self.device, recorder)
                )
                del self.workers.parents[op.index]
        else:
            await adapter.drive_operation_async(self.world, self.workers, op, self.device)
        after = time.perf_counter()
        if window is not None:
            window.samples.append((op.name, op.kind, after - before, op.index))
        if op.kind == "update":
            self.open_pairs.add(key)
            inserted[key].set()
        elif op.kind == "delete":
            self.open_pairs.discard(key)

    async def _replay(self, source, window: Window | None, traced: bool) -> None:
        inserted: dict = {}

        async def client() -> None:
            while (op := source()) is not None:
                await self._one(op, inserted, window, traced)

        await asyncio.gather(*(client() for _ in range(ASYNC_INFLIGHT)))

    def warm(self, block) -> None:
        ops = iter(block)
        asyncio.run(self._replay(lambda: next(ops, None), None, False))

    def run(self, block, seconds: float, traced: bool = False) -> Window:
        window = Window(repeatable=False, pool_start=adapter.pool_counters(self.world))
        size, position = len(block), 0
        deadline = 0.0

        def source():
            nonlocal position
            if time.perf_counter() >= deadline:
                return None
            if position == size and window.pool_counted is None:
                window.pool_counted = adapter.pool_counters(self.world)
                window.counted_ops = size
            op = block[position % size]
            position += 1
            return op

        started = time.perf_counter()
        deadline = started + seconds
        asyncio.run(self._replay(source, window, traced))
        window.wall_s = time.perf_counter() - started
        window.pool_end = adapter.pool_counters(self.world)
        self._owed = _open_deletes(block, position, self.open_pairs)
        return window

    def drain(self) -> None:
        async def main() -> None:
            for op in self._owed:  # their inserts have completed: nothing to wait for
                await self._one(op, {}, None, False)

        asyncio.run(main())
        self._owed = []
        assert not self.open_pairs, "a block's pairs must all close"

    def close(self) -> None:
        self.workers.close()


def http_post(address, body: bytes) -> tuple[int, bytes]:
    """One request, one connection: the daemon speaks HTTP/1.0."""
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request(
            "POST", "/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def http_get_json(address, path: str) -> dict:
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def daemon_pool_counters(address) -> dict:
    """The daemon's published pool gauges, read over ``GET /stats``."""
    gauges = http_get_json(address, "/stats")["metrics"]["gauges"]
    return {
        key: gauges[f"pool.{key}"][0]["value"] for key in ("hits", "misses", "evictions")
    }


class HttpDriver:
    """Client threads issuing ``POST /query`` to the daemon child."""

    #: Every ``ROW_SAMPLE``-th reply of a client is kept for the row check.
    ROW_SAMPLE = 50

    def __init__(self, address, clients: int, recorder: SpanRecorder | None = None) -> None:
        self.address = address
        self.clients = clients
        self.recorder = recorder

    def _client(self, requests, deadline, traced: bool) -> tuple:
        """One closed-loop client: one pass (warm-up) or cycles until ``deadline``."""
        samples, rows, failed, received = [], [], 0, 0
        source = requests if deadline is None else itertools.cycle(requests)
        for position, request in enumerate(source):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            before = time.perf_counter()
            try:
                if traced:
                    with self.recorder.span("server.post_query", op=request.index):
                        status, data = http_post(self.address, request.body)
                else:
                    status, data = http_post(self.address, request.body)
            except (OSError, http.client.HTTPException):
                status, data = 0, b""
            after = time.perf_counter()
            samples.append((request.name, request.kind, after - before, request.index))
            received += len(data)
            if status != 200:
                failed += 1
            elif position % self.ROW_SAMPLE == 0:
                rows.append((request, json.loads(data)["row_count"]))
        return samples, rows, failed, received

    def _fan_out(self, block, deadline, window: Window | None, traced: bool) -> None:
        with ThreadPoolExecutor(max_workers=self.clients) as executor:
            futures = [
                executor.submit(self._client, block[k :: self.clients], deadline, traced)
                for k in range(self.clients)
            ]
            for future in futures:  # a client's exception surfaces here
                samples, rows, failed, received = future.result()
                if window is not None:
                    window.samples.extend(samples)
                    window.sampled_rows.extend(rows)
                    window.failed += failed
                    window.response_bytes += received

    def warm(self, block) -> None:
        self._fan_out(block, None, None, False)

    def run(self, block, seconds: float, traced: bool = False) -> Window:
        window = Window(
            repeatable=self.clients == 1, pool_start=daemon_pool_counters(self.address)
        )
        started = time.perf_counter()
        self._fan_out(block, started + seconds, window, traced)
        window.wall_s = time.perf_counter() - started
        window.pool_end = daemon_pool_counters(self.address)
        return window

    def drain(self) -> None:
        """Selects change nothing: there is nothing to undo."""

    def close(self) -> None:
        pass
