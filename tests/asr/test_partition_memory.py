"""A memory guard on a stored partition's bytes per row.

A 5-column partition of OIDs (101 rows per 4056-byte page, the shape of
the benchmark ladder's mid-partition scan) stores every row once in its
reference counts and once in each of its two trees.  With a flat row key
as the tie-break (one tuple per row, shared by both trees' keys) that
costs ~355 B per row in CPython 3.11 on top of the rows themselves; the
nested tie-break it replaced (one 2-tuple per cell) cost ~545 B.  The
bound sits between the two, so a key encoding that quietly gives the
room back fails here.
"""

import random
import tracemalloc

from repro.asr.asr import StoredPartition
from repro.gom.objects import OID
from tests.asr.loading import bulk_load

ROWS = 20_000
MAX_BYTES_PER_ROW = 430


def test_bulk_loaded_partition_bytes_per_row():
    rng = random.Random(7)
    oids = [OID(value) for value in range(ROWS)]
    rows = list({tuple(rng.choice(oids) for _ in range(5)) for _ in range(ROWS)})
    partition = StoredPartition(4, 8, ("a", "b", "c", "d", "e"))
    assert partition.tuples_per_page == 101
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bulk_load(partition, rows)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert partition.tuple_count == len(rows)
    assert len(partition.forward_tree) == len(partition.backward_tree) == len(rows)
    per_row = grown / len(rows)
    assert per_row < MAX_BYTES_PER_ROW, f"{per_row:.0f} B per stored row"
