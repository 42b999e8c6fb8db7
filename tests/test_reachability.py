"""Every ``src/repro`` name is used outside its own definition, or says why not.

A function or class whose name is referenced nowhere in the code under
``src/``, ``benchmarks/``, ``examples/`` or ``.github/`` is reached by
nothing but tests.  Such code is deleted, or it stays in :data:`KEEP`
with the reason it exists: the paper result it implements, the test
oracle or test setup it is, or the route or safety path it serves.
Dunders are left out: the data model calls them.

A reference is code, not text: a loaded ``ast.Name``, a loaded
``ast.Attribute``, or an imported name.  A docstring's
``:meth:`suspended``` or an ``__all__`` string keeps nothing alive.

The census counts bare names, not qualified ones, so it is blind where
names collide: a test-only method survives while any other ``src/``
code uses an attribute of the same name (``StoredPartition.bulk_load``
did, behind ``BPlusTree.bulk_load``, until it moved to
``tests/asr/loading.py``).  A collision is a reason to look, not proof
of use.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples", ".github")

#: Qualified name -> why it stays although only tests reach it.
KEEP = {
    "repro.concurrency.RWLock.write_held": (
        "test oracle: the write side's re-entrancy in tests/test_concurrency.py"
    ),
    "repro.concurrency.RWLock.writers_waiting": (
        "test setup: the writer-preference tests wait for a queued writer"
    ),
    "repro.gom.database.ObjectBase.new_list": (
        "§2: instantiates GOM's list type constructor (list-valued paths)"
    ),
    "repro.asr.asr.StoredPartition.add_projection": (
        "test oracle: one witness at a time, the per-row path a keyed "
        "apply_delta must count, store and charge as; rebalancing tests "
        "drive trees through it"
    ),
    "repro.asr.asr.StoredPartition.remove_projection": (
        "test oracle: add_projection's inverse, one witness at a time"
    ),
    "repro.gom.traversal.origins_reaching": (
        "test oracle: naive GOM traversal that backward answers must equal"
    ),
    "repro.gom.traversal.reachable_terminals": (
        "test oracle: naive GOM traversal that forward answers must equal"
    ),
    "repro.query.planner.Planner.applicable": (
        "test oracle: the Eq. 35 candidates a decision may use (quarantined "
        "ASRs excluded), which the planner and degraded-mode tests pin"
    ),
    "repro.telemetry.registry.MetricsRegistry.histogram": (
        "test oracle: one histogram series as a read sees it, stored plus "
        "live tallies"
    ),
}


def definitions():
    """``(qualified name, bare name)`` of every function and class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        stack = [(ast.parse(path.read_text()), module)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    qualified = f"{prefix}.{child.name}"
                    yield qualified, child.name
                    stack.append((child, qualified))
                else:
                    stack.append((child, prefix))


def references() -> Counter:
    """Bare name -> how often code under :data:`USERS` refers to it."""
    counts: Counter = Counter()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    counts[node.id] += 1
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    counts[node.attr] += 1
                elif isinstance(node, ast.alias):
                    counts[node.name.rpartition(".")[2]] += 1
    return counts


def test_only_tests_reach_nothing_but_the_keep_table():
    counts = references()
    unreached = {
        qualified
        for qualified, name in definitions()
        if not (name.startswith("__") and name.endswith("__")) and not counts[name]
    }
    assert unreached - KEEP.keys() == set(), (
        "only tests use these: delete them or add them to KEEP with a reason"
    )
    assert KEEP.keys() - unreached == set(), (
        "these KEEP entries are used outside tests now (or gone): drop them"
    )
