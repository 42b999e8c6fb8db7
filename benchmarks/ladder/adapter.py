"""The ladder's only import site for ``repro``: one binding per layer.

Every other file of the harness reaches the program through the names
below, so a refactor of the program is absorbed here and nowhere else.
The bindings follow the surface ROADMAP keeps — ``build_world``,
``execute_operation``, ``ExecutorWorkers`` / ``drive_operation_async``,
``QueryService.execute``, ``ServeDaemon``, ``POST /query`` — and avoid
``drive_operation`` / ``_run_clients`` / the threaded client loop, which
ROADMAP schedules for deletion.  Layers are measured from outside: by
timing calls into these public functions, by passing timing proxies
through the seams the code offers (``execute_operation`` takes its
planner and evaluator, ``drive_operation_async`` its workers and
device), and by reading counters the program publishes
(``pool.describe()``, ``MetricsRegistry.snapshot()``).  No private name
is patched.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_SRC = ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    # The benchmark measures the program in this checkout and no other;
    # a directory that holds only the benchmark has nothing to measure.
    raise SystemExit(f"ladder: no program to measure ({_SRC}/repro is missing)")
sys.path.insert(0, str(_SRC))

# --- storage: B+ tree, clustered object store, shared LRU pool ---------
from repro.storage.btree import BPlusTree  # noqa: E402
from repro.storage.stats import (  # noqa: E402
    AccessStats,
    NullBuffer,
    SharedBufferPool,
    ThreadSafeAccessStats,
    WorkerScope,
)

# --- asr: partitions, extensions, decompositions -----------------------
from repro.asr.asr import AccessSupportRelation  # noqa: E402
from repro.asr.decomposition import Decomposition  # noqa: E402
from repro.asr.extensions import Extension  # noqa: E402

# --- gom: the object base (reached through ``world.generated.db``) -----
from repro.gom.types import NULL  # noqa: E402

# --- query: Q_{i,j} planning/evaluation and the textual pipeline -------
from repro.query.cache import CompiledPlanCache, normalize_query  # noqa: E402
from repro.query.evaluator import QueryEvaluator  # noqa: E402
from repro.query.executor import SelectExecutor  # noqa: E402
from repro.query.parser import parse_select  # noqa: E402
from repro.query.planner import Planner  # noqa: E402
from repro.query.queries import ForwardQuery  # noqa: E402
from repro.query.validate import validate_select  # noqa: E402

# --- concurrency / context / telemetry / device ------------------------
from repro.concurrency import RWLock  # noqa: E402
from repro.context import ExecutionContext  # noqa: E402
from repro.device import DeviceModel, FixedLatency  # noqa: E402
from repro.telemetry import MetricsRegistry, Tracer  # noqa: E402
from repro.telemetry.tracing import activate  # noqa: E402

# --- bench.serve (the serving core) and server (the daemon) ------------
from repro.bench.serve import (  # noqa: E402
    SMALL_PROFILE,
    ExecutorWorkers,
    ServeConfig,
    build_world,
    drive_operation_async,
    execute_operation,
)
from repro.costmodel.parameters import ApplicationProfile  # noqa: E402
from repro.server import ServeDaemon, ServerConfig  # noqa: E402
from repro.workload.opstream import Operation, operation_stream  # noqa: E402
from repro.workload.profiles import FIG14_MIX  # noqa: E402

#: Type borders of the chain ASR every ladder world serves: ``Q0,4``
#: stitches two partitions, ``Q1,2`` stays inside one, ``Q0,3`` ends
#: mid-partition.
TYPE_BORDERS = (0, 2, 4)


@dataclass
class LadderConfig(ServeConfig):
    """``ServeConfig`` over ``SMALL_PROFILE`` scaled by :attr:`scale`.

    ``build_world`` asks its config for the generator profile, so the
    scaled world goes through the shipped builder unchanged.
    ``profile="queries"`` additionally gets the value-extended
    ``…A.Payload`` ASR exactly as the shipped ``queries`` profile.
    """

    scale: int = 25

    def resolved_profile(self):
        small = SMALL_PROFILE
        profile = ApplicationProfile(
            c=tuple(int(c) * self.scale for c in small.c),
            d=tuple(int(d) * self.scale for d in small.d),
            fan=small.fan,
            size=small.size,
        )
        return profile, FIG14_MIX


def chain_decomposition(path) -> Decomposition:
    """:data:`TYPE_BORDERS` as column borders over ``path``."""
    return Decomposition.of(*(path.column_of(i) for i in TYPE_BORDERS))


def swap_chain_asr(world) -> AccessSupportRelation:
    """Replace the world's chain ASR by FULL with the ladder's borders."""
    path = world.generated.path
    old = world.manager.find(path)[0]
    new = AccessSupportRelation.build(
        world.generated.db, path, Extension.FULL, chain_decomposition(path)
    )
    world.manager.replace(old, new)
    return new


def tree_pages(asr) -> int:
    """Pages of every tree of ``asr``: leaves and interiors, both clusterings."""
    return sum(
        tree.leaf_count() + tree.interior_count()
        for partition in asr.partitions
        for tree in (partition.forward_tree, partition.backward_tree)
    )


def asr_pages(world) -> int:
    return sum(tree_pages(asr) for asr in world.manager.asrs)


def stored_pages(world) -> int:
    """Object pages plus the pages of every ASR tree (the space leg)."""
    store = world.generated.store
    types = world.generated.db.schema.type_names()  # unstored types hold 0 pages
    return sum(store.pages_of_type(name) for name in types) + asr_pages(world)


def tuple_count(world) -> int:
    return sum(asr.tuple_count for asr in world.manager.asrs)


def pool_counters(world) -> dict:
    """The shared pool's published counters (hits, misses, evictions)."""
    return world.pool.describe()


def delete_operation(op: Operation, index: int) -> Operation:
    """The ``del_i`` undoing the ``ins_i`` ``op`` (the shipped stream has none)."""
    return replace(op, index=index, name=f"del_{op.level}", kind="delete")


def execute_delete(world, op) -> int:
    """``del_i``: ``execute_operation``'s update branch with ``set_remove``."""
    manager, db = world.manager, world.generated.db
    with manager.exclusive():
        before = manager.context.stats.snapshot()
        db.set_remove(db.attr(op.owner, "A"), op.target)
        return manager.context.stats.delta_since(before).total


def execute(world, context, planner, evaluator, op) -> int:
    """One operation's lock-disciplined core; returns charged pages.

    Queries and ``ins_i`` go through the shipped ``execute_operation``.
    """
    if op.kind == "delete":
        return execute_delete(world, op)
    return execute_operation(world, context, planner, evaluator, op)


class LadderWorkers(ExecutorWorkers):
    """``ExecutorWorkers`` that also understands the harness's ``del_i``."""

    def execute(self, op, trace=None) -> int:
        if op.kind == "delete":
            return execute_delete(self.world, op)
        return super().execute(op, trace)


def teardown_checks(world) -> dict:
    """The end-of-run invariants; raises ``AssertionError`` when one fails."""
    world.manager.check_consistency()
    world.pool.pool.check_invariants()
    accounting = world.pool.check_accounting(world.registry)
    if not accounting["ok"]:
        raise AssertionError(f"pool accounting broken: {accounting}")
    return accounting
