"""Physical B+ tree shape vs the cost model's Eqs. 19-20 at realistic scale."""

import math

import pytest

from repro.storage import BPlusTree, btree_fanout, tuples_per_page


@pytest.mark.parametrize("entries", [500, 5_000, 60_000])
def test_bulk_loaded_tree_matches_model(entries):
    """`ht` and leaf counts of a real tree track the analytical estimates."""
    fanout = btree_fanout()  # 338
    leaf_capacity = tuples_per_page(0, 1)  # binary partition: 253/page
    tree = BPlusTree.bulk_load(
        [(key, key) for key in range(entries)], leaf_capacity, fanout
    )
    tree.check_invariants()
    model_pages = math.ceil(entries / leaf_capacity)
    assert abs(tree.leaf_count() - model_pages) <= 1
    model_height = (
        0 if model_pages <= 1 else math.ceil(math.log(model_pages, fanout))
    )
    assert (tree.height - 1) in (model_height, model_height + 1)
    # Eq. 20 heads: interior pages ≈ Σ ceil(ap / fan^l).
    model_interior = sum(
        math.ceil(model_pages / fanout**level)
        for level in range(1, max(model_height, tree.height - 1) + 1)
    )
    assert abs(tree.interior_count() - model_interior) <= max(
        2, model_interior * 0.5
    )


def test_lookup_cost_is_height_plus_leaf():
    """A point lookup touches exactly ht interior pages + 1 leaf (Eq. 33's
    first-sum shape: ht + nlp with nlp = 1 for short runs)."""
    from repro.storage.stats import AccessStats, BufferScope

    fanout = btree_fanout()
    leaf_capacity = tuples_per_page(0, 1)
    tree = BPlusTree.bulk_load(
        [(key, key) for key in range(100_000)], leaf_capacity, fanout
    )
    stats = AccessStats()
    with BufferScope(stats) as buffer:
        assert tree.search(54_321, buffer) == 54_321
    assert stats.page_reads == tree.height
