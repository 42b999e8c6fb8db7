"""Test setup: fill a stored partition with rows of its own arity."""

from collections import Counter


def bulk_load(partition, rows) -> None:
    """Replace ``partition``'s contents with ``rows``, each counted once.

    The rows are the partition's own (its arity, not extension rows), so
    this adopts their reference counts directly — the row tuples passed
    in are the ones stored — where the production loader,
    ``load_from_extension``, projects extension rows first.
    """
    counts: Counter = Counter()
    for row in rows:
        assert len(row) == partition.arity, "row arity"
        counts[tuple(row)] += 1
    partition._load(counts)
