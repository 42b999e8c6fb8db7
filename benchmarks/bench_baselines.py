"""Baseline comparison: ASRs vs the indexing schemes they subsume (§1).

The paper claims access support relations subsume GemStone index paths
and Orion-style nested attribute indexes while adding: collection-valued
steps, four extension choices, and arbitrary decompositions.  This bench
makes the comparison concrete on one generated world:

* query coverage — which ``Q_{i,j}`` each structure answers at all;
* measured page reads for the whole-path backward lookup;
* storage footprint.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.baselines import NestedAttributeIndex, gemstone_index_path
from repro.bench.render import format_table
from repro.costmodel import ApplicationProfile
from repro.errors import PathError
from repro.gom import PathExpression
from repro.query import BackwardQuery, QueryEvaluator
from repro.storage.stats import AccessStats, BufferScope
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(40, 80, 160, 320),
    d=(36, 70, 140),
    fan=(1, 1, 1),  # linear so the GemStone baseline is applicable
    size=(400, 300, 200, 100),
)


@pytest.fixture(scope="module")
def world():
    generated = ChainGenerator(seed=83).generate(PROFILE)
    db = generated.db
    # Terminal values for the nested index.
    value_path = PathExpression(db.schema, "T0", ("A", "A", "A", "Payload"))
    for position, oid in enumerate(generated.layers[3]):
        db.set_attr(oid, "Payload", position % 11)
    return generated, value_path


def test_baseline_comparison(world, record):
    generated, value_path = world
    db = generated.db
    manager = ASRManager(db)
    gemstone = gemstone_index_path(db, value_path)
    manager.register(gemstone)
    nested = NestedAttributeIndex.build(db, value_path)
    manager.register(nested)
    asr_full = manager.create(
        value_path, Extension.FULL, Decomposition.of(0, 2, value_path.m)
    )
    evaluator = QueryEvaluator(db, generated.store)
    target_value = 5

    def measure():
        query = BackwardQuery(value_path, 0, value_path.n, target=target_value)
        unsupported = evaluator.evaluate_unsupported(query)
        via_gemstone = evaluator.evaluate_supported(query, gemstone)
        via_asr = evaluator.evaluate_supported(query, asr_full)
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            via_nested = nested.lookup(target_value, buffer)
        assert via_gemstone.cells == via_asr.cells == via_nested == unsupported.cells
        return unsupported, via_gemstone, via_asr, stats.page_reads

    unsupported, via_gemstone, via_asr, nested_pages = measure()
    rows = [
        ["no support (scan)", unsupported.page_reads, "-", "any Q_{i,j}"],
        [
            "GemStone index path",
            via_gemstone.page_reads,
            gemstone.total_bytes,
            "Q_{0,n}(bw/fw) only; linear paths only",
        ],
        [
            "Orion nested index",
            nested_pages,
            nested.total_bytes,
            "Q_{0,n}(bw) only",
        ],
        [
            "ASR full/(0,2,n)",
            via_asr.page_reads,
            asr_full.total_bytes,
            "every Q_{i,j}",
        ],
    ]
    record(
        "baseline_comparison",
        format_table(
            ["structure", "bw lookup pages", "bytes", "coverage"],
            rows,
            "Baselines — whole-path backward lookup and coverage",
        ),
    )
    # All indexed structures beat the scan by a wide margin.
    assert via_gemstone.page_reads < unsupported.page_reads / 3
    assert nested_pages < unsupported.page_reads / 3
    # The nested index is the smallest (it stores only value/anchor pairs).
    assert nested.total_bytes <= gemstone.total_bytes
    # Subsumption: the baselines cannot answer a suffix query, the ASR can.
    assert not nested.supports_query(1, value_path.n)
    assert not gemstone.supports_query(1, value_path.n)
    assert asr_full.supports_query(1, value_path.n)


def test_gemstone_rejects_general_paths(world, record):
    generated, _value_path = world
    db = generated.db
    db.schema.define_set("SET_TX", "T3")
    db.schema.define_tuple("TX", {"Members": "SET_TX"})
    general = PathExpression.parse(db.schema, "TX.Members.Payload")
    with pytest.raises(PathError):
        gemstone_index_path(db, general)
    record(
        "baseline_restriction",
        "GemStone index paths reject collection-valued chains; "
        "access support relations accept them (Definition 3.1).",
    )
