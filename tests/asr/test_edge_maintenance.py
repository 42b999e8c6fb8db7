"""Set inserts and removes maintained through their one edge.

A membership change reaches ``neighbourhood_delta`` as an edge
``(step, owner, collection, element)``; the rows it can add or remove
are §6.1's ``I_l × I_r`` through that edge, the collection's empty-set
stub and the element's left stubs.  This property drives the shapes
where that is easiest to get wrong, on one path
``Node.Kids.Seq.Kids.Tags``:

* ``NodeSET`` occurs at steps 1 and 3, so one insert is an edge at two
  steps, and a cycle puts one object at several columns of a row;
* owners share their ``Kids`` sets;
* ``Seq`` is a list, and lists hold duplicate elements and NULL;
* ``Tags`` is a set of atomic values at the terminal step.

Random inserts, removes, collection swaps and deletes run against all
four extensions × the binary, undecomposed and one interior
decomposition, eagerly, under ``manager.batch()`` and in aborted
batches; every step is checked against a from-scratch rebuild.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asr import ASRManager, Decomposition, Extension
from repro.asr.extensions import build_extension
from repro.asr.journal import ASRState
from repro.gom import NULL, ObjectBase, PathExpression, Schema

NODES, SETS, LISTS, TAG_SETS = 5, 3, 2, 2
TAGS = ("a", "b", "c")

operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "append", "null", "tag", "remove", "untag", "swap", "delete"]
        ),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=12,
)


class Aborted(Exception):
    pass


def make_world():
    schema = Schema()
    schema.define_set("TagSET", "STRING")
    schema.define_tuple(
        "Node", {"Kids": "NodeSET", "Seq": "NodeLIST", "Tags": "TagSET"}
    )
    schema.define_set("NodeSET", "Node")
    schema.define_list("NodeLIST", "Node")
    schema.validate()
    db = ObjectBase(schema)
    sets = [db.new_set("NodeSET") for _ in range(SETS)]
    lists = [db.new_list("NodeLIST") for _ in range(LISTS)]
    tag_sets = [db.new_set("TagSET", [TAGS[i]]) for i in range(TAG_SETS)]
    nodes = [
        db.new(
            "Node",
            Kids=sets[i % SETS],  # nodes 0 and 3, 1 and 4 share a set
            Seq=lists[i % LISTS],
            Tags=tag_sets[i % TAG_SETS],
        )
        for i in range(NODES)
    ]
    for i, node in enumerate(nodes):
        db.set_insert(sets[i % SETS], nodes[(i + 1) % NODES])
        db.list_append(lists[i % LISTS], node)
    path = PathExpression.parse(schema, "Node.Kids.Seq.Kids.Tags")
    return db, path, nodes, {"Kids": sets, "Seq": lists, "Tags": tag_sets}


def apply_op(db, nodes, collections, op, x, y):
    alive = [node for node in nodes if node in db]
    if not alive:
        return
    node = alive[x % len(alive)]
    other = alive[y % len(alive)]
    kids = [c for c in collections["Kids"] if c in db]
    if op == "insert" and kids:
        db.set_insert(kids[y % len(kids)], node)
    elif op == "append":
        db.list_append(collections["Seq"][x % LISTS], other)  # duplicates too
    elif op == "null":
        db.list_append(collections["Seq"][x % LISTS], NULL)
    elif op == "tag":
        db.set_insert(collections["Tags"][x % TAG_SETS], TAGS[y % len(TAGS)])
    elif op == "remove" and kids:
        db.set_remove(kids[y % len(kids)], node)
    elif op == "untag":
        db.set_remove(collections["Tags"][x % TAG_SETS], TAGS[y % len(TAGS)])
    elif op == "swap":
        attribute = ("Kids", "Seq", "Tags")[y % 3]
        choices = [c for c in collections[attribute] if c in db] + [NULL]
        db.set_attr(node, attribute, choices[(x + y) % len(choices)])
    elif op == "delete":
        if y % 4 == 0 and len(kids) > 1:
            db.delete(kids[x % len(kids)])  # a shared collection
        elif len(alive) > 2:
            db.delete(node)


def assert_rebuilt(db, manager):
    rebuilt = {}
    for asr in manager.asrs:
        if asr.extension not in rebuilt:
            rebuilt[asr.extension] = build_extension(db, asr.path, asr.extension).rows
        assert asr.recompose().rows == rebuilt[asr.extension]
    manager.check_consistency()


@pytest.mark.parametrize("mode", ["eager", "batch", "aborted"])
@settings(max_examples=10, deadline=None)
@given(ops=operations, txn_size=st.integers(1, 5))
# A member appended to, and deleted from, a list that holds NULL: the
# row ending in NULL after the list must survive both edges.
@example(ops=[("null", 0, 0), ("append", 0, 2), ("delete", 2, 1)], txn_size=1)
def test_edge_deltas_match_rebuild(mode, ops, txn_size):
    db, path, nodes, collections = make_world()
    manager = ASRManager(db)
    for extension in Extension:
        for decomposition in (
            Decomposition.binary(path.m),
            Decomposition.none(path.m),
            Decomposition.of(0, 4, path.m),
        ):
            manager.create(path, extension, decomposition)
    assert_rebuilt(db, manager)
    if mode == "eager":
        for op, x, y in ops:
            apply_op(db, nodes, collections, op, x, y)
            assert_rebuilt(db, manager)
        return
    for start in range(0, len(ops), txn_size):
        chunk = ops[start : start + txn_size]
        if mode == "batch":
            with manager.batch():
                for op, x, y in chunk:
                    apply_op(db, nodes, collections, op, x, y)
            assert_rebuilt(db, manager)
            continue
        with pytest.raises(Aborted):
            with manager.batch():
                for op, x, y in chunk:
                    apply_op(db, nodes, collections, op, x, y)
                raise Aborted
        # The abort quarantines exactly the ASRs its coalesced delta
        # would have changed, and recovery derives them again.
        for asr in manager.asrs:
            rebuilt = build_extension(db, asr.path, asr.extension).rows
            stale = asr.recompose().rows != rebuilt
            assert (asr.state is ASRState.QUARANTINED) == stale
        manager.recover()
        assert_rebuilt(db, manager)
