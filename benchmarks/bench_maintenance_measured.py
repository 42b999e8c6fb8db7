"""Measured maintenance page traffic vs the analytical update model.

The paper's section 6 costs are analytical only.  Here a live ASR is
maintained through a stream of set-insert updates with page accounting
switched on (an ``ExecutionContext`` on the manager, one ``operation()``
per update), and the measured tree page writes per update are compared
— loosely — with the model's ``aup`` term.  The
*search* term is not comparable (the simulator's object base has a
reverse-reference index the paper's object layout lacks), so the checks
are order-of-magnitude sanity bounds plus the structural claim that the
full extension's maintenance touches far fewer pages than the
right-complete extension's for right-end updates.
"""

import random

from repro.asr import ASRManager, Decomposition, Extension
from repro.bench.render import format_table
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile, UpdateCostModel
from repro.workload import ChainGenerator, measure_profile

PROFILE = ApplicationProfile(
    c=(30, 60, 120, 240),
    d=(27, 54, 110),
    fan=(2, 2, 2),
    size=(400, 300, 200, 100),
)


def measured_maintenance_pages(extension: Extension, updates: int = 30):
    generated = ChainGenerator(seed=61).generate(PROFILE)
    db, path = generated.db, generated.path
    context = ExecutionContext()
    manager = ASRManager(db, context=context)
    manager.create(path, extension, Decomposition.binary(path.m))
    rng = random.Random(62)
    applied = 0
    while applied < updates:
        owner = rng.choice(generated.layers[2])
        collection = db.attr(owner, "A")
        if not collection:
            continue
        target = rng.choice(generated.layers[3])
        with context.operation("ins_2"):
            changed = db.set_insert(collection, target)
        if changed:
            applied += 1
    manager.check_consistency()
    return context.stats.total / updates, measure_profile(generated)


def test_maintenance_pages_full_vs_right(record):
    full_pages, measured = measured_maintenance_pages(Extension.FULL)
    right_pages, _ = measured_maintenance_pages(Extension.RIGHT)
    model = UpdateCostModel(measured)
    dec = Decomposition.binary(measured.n)
    rows = [
        ["full (measured tree writes/ins_2)", round(full_pages, 2)],
        ["right (measured tree writes/ins_2)", round(right_pages, 2)],
        ["full (model aup)", round(model.aup(Extension.FULL, 2, dec), 2)],
        ["right (model aup)", round(model.aup(Extension.RIGHT, 2, dec), 2)],
        ["full (model total incl. search)", round(model.total(Extension.FULL, 2, dec), 2)],
        ["right (model total incl. search)", round(model.total(Extension.RIGHT, 2, dec), 2)],
    ]
    record(
        "maintenance_measured",
        format_table(
            ["quantity", "pages"],
            rows,
            "Maintenance — measured simulator traffic vs analytical model (ins_2)",
        ),
    )
    # Sanity: maintenance touches pages, but far fewer than a rebuild would.
    assert 0 < full_pages < 200
    # The model's *total* ordering (right needs data searches for a
    # right-end update) must agree with the structural claim.
    assert model.total(Extension.FULL, 2, dec) < model.total(Extension.RIGHT, 2, dec)
