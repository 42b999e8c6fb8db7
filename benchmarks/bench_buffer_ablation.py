"""Ablation: buffer-pool size sensitivity of unsupported evaluation.

The cost model (and Yao's formula) implicitly assumes a buffer large
enough that each distinct page is read once per operation.  This bench
re-runs the exhaustive backward scan under shared pools of decreasing
capacity (``SharedBufferPool``, LIRS replacement: the pages re-touched
at the shortest distance keep all but ``max(1, capacity // 100)``
frames) and shows how page traffic inflates once the working set no
longer fits — quantifying how load-bearing that modelling assumption
is.
"""

from repro.bench.render import format_table
from repro.costmodel import ApplicationProfile
from repro.gom.objects import OID
from repro.gom.types import NULL
from repro.query import BackwardQuery
from repro.storage.stats import AccessStats, BufferScope, SharedBufferPool
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(40, 80, 160, 320),
    d=(36, 70, 140),
    fan=(2, 2, 2),
    size=(400, 300, 200, 100),
)


def scan_pages_with_capacity(generated, capacity: int | None) -> int:
    """Pages read by a full backward scan under the given buffer size."""
    db, path, store = generated.db, generated.path, generated.store
    stats = AccessStats()
    buffer = (
        BufferScope(stats)
        if capacity is None
        else SharedBufferPool(stats, capacity)
    )
    target = generated.layers[path.n][0]
    # Inline unsupported backward scan so the custom buffer is used.
    store.scan_type("T0", buffer)
    for oid in db.extent("T0"):
        frontier = {oid}
        for level in range(0, path.n):
            step = path.steps[level]
            next_frontier = set()
            for cell in frontier:
                if not isinstance(cell, OID):
                    continue
                if level > 0:
                    store.access(cell, db.type_of(cell), buffer)
                value = db.attr(cell, step.attribute)
                if value is NULL:
                    continue
                if step.is_set_occurrence:
                    next_frontier.update(db.members(value))
                else:
                    next_frontier.add(value)
            frontier = next_frontier
    return stats.page_reads


def test_buffer_capacity_sweep(benchmark, record):
    generated = ChainGenerator(seed=73).generate(PROFILE)

    def sweep():
        rows = []
        unbounded = scan_pages_with_capacity(generated, None)
        for capacity in (64, 16, 8, 4, 2):
            pages = scan_pages_with_capacity(generated, capacity)
            rows.append([capacity, pages, round(pages / unbounded, 2)])
        rows.insert(0, ["unbounded", unbounded, 1.0])
        return rows

    rows = benchmark(sweep)
    record(
        "buffer_ablation",
        format_table(
            ["buffer pages", "page reads", "vs unbounded"],
            rows,
            "Ablation — backward-scan page reads under LIRS shared pools",
        ),
    )
    # Traffic is monotonically non-decreasing as the buffer shrinks.
    reads = [row[1] for row in rows]
    assert all(a <= b for a, b in zip(reads, reads[1:])), reads
    # A tiny buffer costs measurably more than the model's assumption.
    assert reads[-1] > reads[0]
