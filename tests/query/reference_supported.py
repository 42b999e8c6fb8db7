"""The per-call supported evaluation, kept as the reference for tests.

These are ``QueryEvaluator._supported_forward`` / ``_supported_backward``
as they stood before an access support relation compiled each query
shape into an access path (:meth:`AccessSupportRelation.access_path
<repro.asr.asr.AccessSupportRelation.access_path>`): the Eq. 33/34 case
split worked out again on every call, over the partitions' public
probes.  The product no longer contains them; the tests compare the
compiled access path against them — same cells, same pages, same order.
"""

from repro.gom.types import NULL
from repro.query.queries import ForwardQuery, ValueRangeQuery


def supported_forward(query: ForwardQuery, asr, buffer) -> set:
    path = asr.path
    first_column = path.column_of(query.i)
    last_column = path.column_of(query.j)
    frontier = {query.start}
    for partition in asr.partitions:
        a, b = partition.first_column, partition.last_column
        if b <= first_column:
            continue
        if a >= last_column:
            break
        if a < first_column:
            # The query's origin lies strictly inside this partition:
            # every page must be inspected (second sum of Eq. 33).
            rows = partition.forward_tree.column_probe(first_column - a, frontier, buffer)
        else:
            rows = [
                row
                for cell in frontier
                for row in partition.lookup_forward(cell, buffer)
            ]
        advance = min(b, last_column) - a
        frontier = {row[advance] for row in rows if row[advance] is not NULL}
        if not frontier:
            break
    return frontier


def supported_backward(query, asr, buffer) -> set:
    """Stitch partitions right to left from the target (Eq. 34).

    A value-range query differs only in how the terminal partition
    is entered: one index range scan over its value clustering
    instead of a lookup of the single target.
    """
    path = asr.path
    first_column = path.column_of(query.i)
    last_column = path.column_of(query.j)
    frontier = None if isinstance(query, ValueRangeQuery) else {query.target}
    for partition in reversed(asr.partitions):
        a, b = partition.first_column, partition.last_column
        if a >= last_column:
            continue
        if b <= first_column:
            break
        if frontier is None:
            # The terminal partition of a range query: one scan
            # over the value clustering.
            rows = partition.lookup_backward_range(query.lo, query.hi, buffer)
        elif b > last_column:
            # The query's target lies strictly inside this partition.
            rows = partition.forward_tree.column_probe(last_column - a, frontier, buffer)
        else:
            rows = [
                row
                for cell in frontier
                for row in partition.lookup_backward(cell, buffer)
            ]
        advance = max(a, first_column) - a
        frontier = {row[advance] for row in rows if row[advance] is not NULL}
        if not frontier:
            break
    return frontier or set()


def reference_supported(query, asr, buffer) -> set:
    """The reference answer of ``query`` through ``asr``, charged to ``buffer``."""
    if isinstance(query, ForwardQuery):
        return supported_forward(query, asr, buffer)
    return supported_backward(query, asr, buffer)
