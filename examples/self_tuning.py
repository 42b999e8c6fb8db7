"""Self-adjusting physical design and cross-path sharing.

Demonstrates the two features the paper sketches beyond its core
contribution:

* section 5.4 — two path expressions over the same tool/manufacturer
  sub-chain could store that partition once: the analysis finds the
  segment, the extensions under which sharing is legal, the induced
  decompositions and the bytes saved (:mod:`repro.asr.sharing`);
* section 7 (future work) — a recorded usage pattern drives the cost
  model to (semi-)automatically re-tune an ASR's extension and
  decomposition (:class:`~repro.asr.adaptive.AdvisorLoop`, one forced
  sweep).

Run:  python examples/self_tuning.py
"""

import random

from repro.asr import (
    ASRManager,
    AdvisorLoop,
    Decomposition,
    Extension,
    WorkloadRecorder,
    best_shared_design,
)
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.gom import ObjectBase, PathExpression, Schema
from repro.query import BackwardQuery, QueryEvaluator
from repro.workload import ChainGenerator


def sharing_demo() -> None:
    print("== cross-path sharing (section 5.4) ==")
    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple("TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"})
    schema.define_tuple("ARM", {"MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_tuple("WORKCELL", {"SpareTool": "TOOL"})
    schema.validate()

    db = ObjectBase(schema)
    rng = random.Random(2)
    makers = [
        db.new("MANUFACTURER", Name=f"M{i}", Location=rng.choice(["Utopia", "Sirius"]))
        for i in range(6)
    ]
    tools = [
        db.new("TOOL", Function=f"F{i}", ManufacturedBy=rng.choice(makers))
        for i in range(30)
    ]
    arms = [db.new("ARM", MountedTool=rng.choice(tools)) for _ in range(20)]
    for i in range(15):
        db.new("ROBOT", Name=f"R{i}", Arm=rng.choice(arms))
    for i in range(8):
        db.new("WORKCELL", SpareTool=rng.choice(tools))

    path_a = PathExpression.parse(schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location")
    path_b = PathExpression.parse(schema, "WORKCELL.SpareTool.ManufacturedBy.Location")
    segment = best_shared_design(path_a, path_b)
    legal = sorted(extension.value for extension in segment.legal_extensions())
    print(f"paths {path_a} and {path_b} share {segment.length} hop(s)")
    print(f"  legal extensions: {', '.join(legal)}")
    print(
        f"  induced decompositions: {segment.decomposition_a()} / "
        f"{segment.decomposition_b()}"
    )

    # Each path keeps its own ASR on its induced decomposition.
    manager = ASRManager(db)
    asr_a = manager.create(path_a, Extension.FULL, segment.decomposition_a())
    asr_b = manager.create(path_b, Extension.FULL, segment.decomposition_b())
    partition = asr_a.partition_at(path_a.column_of(segment.start_a))
    print(
        f"  one partition of {partition.tuple_count} tuples could be stored "
        f"once ({partition.byte_size} bytes saved, Eq. 15)"
    )
    evaluator = QueryEvaluator(db)
    for path, asr in ((path_a, asr_a), (path_b, asr_b)):
        query = BackwardQuery(path, 0, path.n, target="Utopia")
        answer = evaluator.evaluate_supported(query, asr)
        assert answer.cells == evaluator.evaluate_unsupported(query).cells
        print(f"  {path}: {len(answer.cells)} origins reach 'Utopia'")
    db.set_attr(tools[0], "ManufacturedBy", makers[-1])
    manager.check_consistency()
    print("  one update applied; both ASRs still exact\n")


def adaptive_demo() -> None:
    print("== self-adjusting physical design (section 7) ==")
    profile = ApplicationProfile(
        c=(40, 80, 160, 320),
        d=(36, 64, 128),
        fan=(2, 2, 2),
        size=(400, 300, 200, 100),
    )
    generated = ChainGenerator(seed=21).generate(profile)
    db, path = generated.db, generated.path
    sizes = {f"T{i}": int(profile.size[i]) for i in range(4)}
    manager = ASRManager(db, costs=MeasuredCosts(db, sizes))

    # Start with a deliberately poor choice for the workload to come.
    asr = manager.create(path, Extension.RIGHT, Decomposition.binary(path.m))
    print(f"initial design: {asr.extension.value}, dec={asr.decomposition}")

    recorder = WorkloadRecorder(path)
    recorder.attach(db)
    rng = random.Random(22)
    for _ in range(120):
        recorder.record_query(0, 2, "bw")  # prefix query RIGHT cannot serve
    for _ in range(30):
        recorder.record_query(0, 3, "bw")
    for _ in range(6):
        owner = rng.choice(generated.layers[0])
        collection = db.attr(owner, "A")
        if collection:
            db.set_insert(collection, rng.choice(generated.layers[1]))

    mix, p_up = recorder.to_mix()
    print(f"recorded workload: {mix} at P_up={p_up:.3f}")
    loop = AdvisorLoop(manager, asr, recorder)
    loop.sweep(force=True)
    print(f"decision: {loop.describe()['last_decision']['decision']}")
    print(f"new design: {loop.asr.extension.value}, dec={loop.asr.decomposition}")
    manager.check_consistency()
    print("index consistent after re-materialization")


if __name__ == "__main__":
    sharing_demo()
    adaptive_demo()
