"""Batched (coalesced) ASR maintenance vs eager per-event maintenance.

The eager regime applies one neighbourhood delta per primitive event —
the per-update cost section 6 prices.  The batched regime
(:meth:`~repro.asr.manager.ASRManager.batch`) only *accumulates* dirty
regions during a transaction and applies one coalesced delta per ASR at
the flush boundary, under a single buffer scope.  When a transaction's
events cluster on one owner (the common case: several inserts into the
same collection, each an edge from that owner), the coalesced flush
charges the shared search and tree pages once instead of once per
event.

Both regimes are driven through an :class:`~repro.context.ExecutionContext`
so the totals come straight out of the context's stats, and both must
leave the ASR identical to a from-scratch rebuild (``check_consistency``).
"""

import random

from repro.asr import ASRManager, Decomposition, Extension
from repro.bench.render import format_table
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(30, 60, 120, 240),
    d=(27, 54, 110),
    fan=(2, 2, 2),
    size=(400, 300, 200, 100),
)

#: Events per transaction; every transaction's inserts hit one owner's
#: collection, so its dirty regions coalesce into one owner's edges.
TXN_SIZE = 6
TRANSACTIONS = 8


def _workload(generated, rng: random.Random):
    """Deterministic transactions: (collection, targets) per transaction.

    The same seed regenerates the same world (identical OIDs), so both
    regimes replay byte-identical event streams.
    """
    db = generated.db
    transactions = []
    for _ in range(TRANSACTIONS):
        owner = rng.choice(generated.layers[2])
        collection = db.attr(owner, "A")
        targets = rng.sample(generated.layers[3], TXN_SIZE)
        transactions.append((collection, targets))
    return transactions


def run_maintenance(extension: Extension, batched: bool) -> tuple[int, int]:
    """Total maintenance pages and extension-rows changed for one regime."""
    generated = ChainGenerator(seed=61).generate(PROFILE)
    db, path = generated.db, generated.path
    context = ExecutionContext()
    manager = ASRManager(db, context=context)
    manager.create(path, extension, Decomposition.binary(path.m))
    rows_before = manager.asrs[0].tuple_count
    for collection, targets in _workload(generated, random.Random(62)):
        if batched:
            with manager.batch():
                for target in targets:
                    db.set_insert(collection, target)
        else:
            for target in targets:
                with context.operation("asr.event"):
                    db.set_insert(collection, target)
    manager.check_consistency()
    rows_changed = manager.asrs[0].tuple_count - rows_before
    return context.stats.total, rows_changed


def test_batched_flush_charges_fewer_pages(record):
    eager_full, changed_eager = run_maintenance(Extension.FULL, batched=False)
    batched_full, changed_batched = run_maintenance(Extension.FULL, batched=True)
    eager_can, _ = run_maintenance(Extension.CANONICAL, batched=False)
    batched_can, _ = run_maintenance(Extension.CANONICAL, batched=True)
    rows = [
        ["full, eager per-event", eager_full],
        ["full, batched flush", batched_full],
        ["can, eager per-event", eager_can],
        ["can, batched flush", batched_can],
    ]
    record(
        "batched_maintenance",
        format_table(
            ["regime", "pages"],
            rows,
            f"Maintenance pages — {TRANSACTIONS} transactions x "
            f"{TXN_SIZE} clustered inserts",
        ),
    )
    # Both regimes converge to the same extension (consistency already
    # asserted inside run_maintenance against a from-scratch rebuild).
    assert changed_eager == changed_batched
    assert changed_eager > 0, "the workload must actually change the ASR"
    # The headline claim: coalescing never charges more than per-event
    # application, and on clustered transactions it charges strictly less.
    assert batched_full <= eager_full
    assert batched_can <= eager_can
    assert batched_full < eager_full, (
        "clustered transactions should coalesce to strictly fewer pages"
    )
