"""Batched maintenance exactness: coalesced ≡ per-event ≡ rebuild.

Two managers subscribe to the *same* object base: one maintains its
ASRs eagerly (one neighbourhood delta per event), the other accumulates
each transaction's dirty regions and applies one coalesced delta per
ASR at the flush boundary.  After any random update stream, chunked
into arbitrary transactions, all three states must agree: the eager
ASR, the batched ASR, and a from-scratch rebuild
(``check_consistency``).  Exercised for all four extensions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import ASRManager, Decomposition, Extension
from repro.gom import NULL, ObjectBase, PathExpression, Schema

operations = st.lists(
    st.tuples(
        st.sampled_from(["attr", "insert", "remove", "rename", "delete"]),
        st.integers(0, 5),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=25,
)


def make_world():
    schema = Schema()
    schema.define_tuple("Part", {"Name": "STRING"})
    schema.define_set("PartSET", "Part")
    schema.define_tuple("Prod", {"Parts": "PartSET"})
    schema.validate()
    db = ObjectBase(schema)
    parts = [db.new("Part", Name=f"p{i}") for i in range(6)]
    sets = [db.new_set("PartSET") for _ in range(4)]
    prods = [db.new("Prod") for _ in range(4)]
    path = PathExpression.parse(schema, "Prod.Parts.Name")
    return db, path, parts, sets, prods


def apply_op(db, alive_parts, sets, prods, op, x, y):
    if op == "attr":
        db.set_attr(prods[x % 4], "Parts", sets[y % 4] if y < 4 else NULL)
    elif op == "insert" and alive_parts:
        db.set_insert(sets[x % 4], alive_parts[y % len(alive_parts)])
    elif op == "remove" and alive_parts:
        db.set_remove(sets[x % 4], alive_parts[y % len(alive_parts)])
    elif op == "rename" and alive_parts:
        db.set_attr(alive_parts[x % len(alive_parts)], "Name", f"r{y}")
    elif op == "delete" and len(alive_parts) > 1:
        db.delete(alive_parts.pop(x % len(alive_parts)))


@settings(max_examples=40, deadline=None)
@given(operations, st.integers(1, 8), st.sampled_from(list(Extension)))
def test_batched_streams_match_eager_and_rebuild(ops, txn_size, extension):
    db, path, parts, sets, prods = make_world()
    eager = ASRManager(db)
    asr_eager = eager.create(path, extension, Decomposition.binary(path.m))
    batched = ASRManager(db)
    asr_batched = batched.create(path, extension, Decomposition.none(path.m))
    alive_parts = list(parts)
    for start in range(0, len(ops), txn_size):
        with batched.batch():
            for op, x, y in ops[start : start + txn_size]:
                apply_op(db, alive_parts, sets, prods, op, x, y)
        # Transaction boundary: the coalesced flush has run; both
        # regimes must now equal a from-scratch rebuild.
        assert (
            asr_batched.recompose().rows == asr_eager.recompose().rows
        )
        eager.check_consistency()
        batched.check_consistency()
