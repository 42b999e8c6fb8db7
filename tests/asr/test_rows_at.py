"""The partitions are the ASR: ``rows_at`` and ``recompose`` read it back.

An access support relation stores only its partitions.  Maintenance
reads the old rows through one cell with
``AccessSupportRelation.rows_at(column, cell)`` — a lookup into the
partition holding ``column``, then border lookups across its
neighbours — and the tests read the whole extension with
``recompose()``.  Both must equal ``build_extension`` after any update
stream, ``rows_at`` also under the ``where`` filters maintenance passes,
on the path ``Node.Kids.Seq.Next.Tag``:

* ``Kids`` is a set and ``Seq`` a list (columns 1 and 3 hold the
  collections), so empty collections leave NULL-padded stubs, a list
  holds NULL and duplicates, and an object with no predecessor starts
  left stubs;
* ``Next`` is a cycle-capable step, so one node sits at several columns
  of one row.

All four extensions × the undecomposed, binary, interior type-border
and collection-border decompositions are maintained by one manager.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asr import AccessSupportRelation, ASRManager, Decomposition, Extension
from repro.asr.extensions import build_extension
from repro.asr.maintenance import DirtyRegion, neighbourhood_delta
from repro.asr.relation import Relation
from repro.gom import NULL, ObjectBase, PathExpression, Schema

NODES, SETS, LISTS = 5, 2, 2
TAGS = ("a", "b")

#: Undecomposed, binary, type borders inside, a border on the list column.
DECOMPOSITIONS = ((0, 6), (0, 1, 2, 3, 4, 5, 6), (0, 2, 5, 6), (0, 3, 6))

operations = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "append", "null", "remove", "next", "tag", "swap", "delete"]
        ),
        st.integers(0, 7),
        st.integers(0, 7),
    ),
    min_size=1,
    max_size=10,
)


def make_world():
    schema = Schema()
    schema.define_tuple(
        "Node", {"Kids": "NodeSET", "Seq": "NodeLIST", "Next": "Node", "Tag": "STRING"}
    )
    schema.define_set("NodeSET", "Node")
    schema.define_list("NodeLIST", "Node")
    schema.validate()
    db = ObjectBase(schema)
    sets = [db.new_set("NodeSET") for _ in range(SETS)]
    lists = [db.new_list("NodeLIST") for _ in range(LISTS)]
    nodes = [
        db.new("Node", Kids=sets[i % SETS], Seq=lists[i % LISTS], Tag=TAGS[i % 2])
        for i in range(NODES)
    ]
    for i, node in enumerate(nodes):
        db.set_insert(sets[i % SETS], nodes[(i + 1) % NODES])
        db.list_append(lists[i % LISTS], nodes[(i + 2) % NODES])
        if i < NODES - 1:
            db.set_attr(node, "Next", nodes[i + 1])
    path = PathExpression.parse(schema, "Node.Kids.Seq.Next.Tag")
    return db, path, nodes, {"Kids": sets, "Seq": lists}


def apply_op(db, nodes, collections, op, x, y):
    alive = [node for node in nodes if node in db]
    node, other = alive[x % len(alive)], alive[y % len(alive)]
    kids = [c for c in collections["Kids"] if c in db]
    seqs = [c for c in collections["Seq"] if c in db]
    if op == "insert" and kids:
        db.set_insert(kids[y % len(kids)], node)
    elif op == "append" and seqs:
        db.list_append(seqs[x % len(seqs)], other)  # duplicates too
    elif op == "null" and seqs:
        db.list_append(seqs[x % len(seqs)], NULL)
    elif op == "remove" and kids:
        db.set_remove(kids[y % len(kids)], node)
    elif op == "next":
        db.set_attr(node, "Next", other if y % 4 else NULL)  # x == y: a self-loop
    elif op == "tag":
        db.set_attr(node, "Tag", TAGS[y % 2] if y % 3 else NULL)
    elif op == "swap":
        attribute = ("Kids", "Seq")[y % 2]
        choices = [c for c in collections[attribute] if c in db] + [NULL]
        db.set_attr(node, attribute, choices[(x + y) % len(choices)])
    elif op == "delete":
        if y % 3 == 0 and len(kids) + len(seqs) > 2:
            victim = (kids + seqs)[x % (len(kids) + len(seqs))]
            db.delete(victim)  # a shared collection
        elif len(alive) > 2:
            db.delete(node)


def assert_rows_at_is_the_extension(db, asr, absent):
    """Every ``rows_at`` and ``recompose()`` against ``build_extension``."""
    expected = build_extension(db, asr.path, asr.extension)
    assert asr.recompose() == expected
    assert asr.tuple_count == len(expected)
    for column in range(asr.path.m + 1):
        cells = {row[column] for row in expected} | absent
        for cell in cells:
            rows = asr.rows_at(column, cell)
            assert len(rows) == len(set(rows)), (column, cell, "a row twice")
            held = {row for row in expected if cell is not NULL and row[column] == cell}
            assert set(rows) == held, (asr.design, column, cell)
            # ``where`` filters: a left stub's NULLs, a right stub's last NULL.
            left = dict.fromkeys(range(column), (NULL,))
            assert set(asr.rows_at(column, cell, left)) == {
                row for row in held if all(c is NULL for c in row[:column])
            }
            last = asr.path.m
            assert set(asr.rows_at(column, cell, {last: (NULL,)})) == {
                row for row in held if row[last] is NULL
            }


@settings(max_examples=15, deadline=None)
@given(operations)
# Stubs (an emptied set, objects left without a predecessor), a list
# holding NULL, and a cycle through one node at several columns (the
# self-loop puts node 1 at columns 4 and 5 of one row).
@example(
    [
        ("swap", 0, 1),
        ("null", 0, 0),
        ("remove", 2, 1),
        ("remove", 4, 1),
        ("next", 1, 1),
    ]
)
@example([("delete", 0, 0), ("append", 1, 1), ("null", 1, 0), ("next", 3, 3)])
def test_rows_at_and_recompose_equal_the_rebuilt_extension(ops):
    db, path, nodes, collections = make_world()
    manager = ASRManager(db)
    asrs = [
        manager.create(path, extension, Decomposition(borders))
        for extension in Extension
        for borders in DECOMPOSITIONS
    ]
    gone = set()
    for op, x, y in ops:
        apply_op(db, nodes, collections, op, x, y)
        gone |= {node for node in nodes if node not in db}
        for asr in asrs:
            assert_rows_at_is_the_extension(db, asr, gone | {NULL, "absent"})
    manager.check_consistency()


def test_a_stored_true_is_the_recomputed_one():
    """``cell_key`` ranks ``True`` apart from ``1``, but a delta's row
    sets hold them equal: reading only the ``1`` key would miss the
    stored ``True`` row, and the recompute would add its ``1`` twin
    on top of it, counting the one projection twice."""
    schema = Schema()
    schema.define_tuple("Part", {"Price": "DECIMAL"})
    schema.define_tuple("Prod", {"Main": "Part"})
    schema.validate()
    db = ObjectBase(schema)
    parts = [db.new("Part", Price=price) for price in (1, 1.0)]
    prods = [db.new("Prod", Main=part) for part in parts]
    path = PathExpression.parse(schema, "Prod.Main.Price")
    asr = AccessSupportRelation(path, Extension.FULL)
    stored = [(prods[0], parts[0], True), (prods[1], parts[1], 1.0)]
    asr.reload(Relation(path.column_labels(), stored))
    region = DirtyRegion(frozenset({(path.n, 1)}))
    assert set(asr.rows_at(path.m, 1)) == set(stored)
    assert neighbourhood_delta(db, asr, region) == (set(), set())
    asr.consistency_check(db)
