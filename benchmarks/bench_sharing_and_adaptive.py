"""Benchmarks for the sharing (§5.4) and self-tuning (§7) extensions."""

import random

from repro.asr import (
    ASRManager,
    AdvisorLoop,
    Decomposition,
    Extension,
    SharedASRBundle,
    WorkloadRecorder,
)
from repro.bench.render import format_table
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.gom import ObjectBase, PathExpression, Schema
from repro.workload import ChainGenerator


def build_two_path_world(scale: int = 20):
    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple("TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"})
    schema.define_tuple("ARM", {"MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_tuple("WORKCELL", {"SpareTool": "TOOL"})
    schema.validate()
    db = ObjectBase(schema)
    rng = random.Random(31)
    makers = [
        db.new("MANUFACTURER", Name=f"M{i}", Location=rng.choice(["Utopia", "Sirius"]))
        for i in range(scale // 4)
    ]
    tools = [
        db.new("TOOL", Function=f"F{i}", ManufacturedBy=rng.choice(makers))
        for i in range(scale * 2)
    ]
    arms = [db.new("ARM", MountedTool=rng.choice(tools)) for _ in range(scale)]
    for i in range(scale):
        db.new("ROBOT", Name=f"R{i}", Arm=rng.choice(arms))
    for i in range(scale // 2):
        db.new("WORKCELL", SpareTool=rng.choice(tools))
    path_a = PathExpression.parse(schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location")
    path_b = PathExpression.parse(schema, "WORKCELL.SpareTool.ManufacturedBy.Location")
    return db, path_a, path_b


def test_shared_bundle_build_and_savings(record):
    db, path_a, path_b = build_two_path_world()
    bundle = SharedASRBundle.build(db, path_a, path_b, Extension.FULL)
    separate = bundle.shared_partition.byte_size * 2
    shared = bundle.shared_partition.byte_size
    record(
        "sharing_savings",
        format_table(
            ["quantity", "bytes"],
            [
                ["two private copies", separate],
                ["one shared store", shared],
                ["saved", separate - shared],
            ],
            "Sharing — storage for the common TOOL→MANUFACTURER→Location segment",
        ),
    )
    assert bundle.bytes_saved > 0
    bundle.consistency_check(db)


def test_adaptive_retune(record):
    profile = ApplicationProfile(
        c=(40, 80, 160, 320),
        d=(36, 64, 128),
        fan=(2, 2, 2),
        size=(400, 300, 200, 100),
    )
    generated = ChainGenerator(seed=43).generate(profile)
    sizes = {f"T{i}": int(profile.size[i]) for i in range(4)}
    manager = ASRManager(generated.db, costs=MeasuredCosts(generated.db, sizes))

    asr = manager.create(
        generated.path, Extension.RIGHT, Decomposition.binary(generated.path.m)
    )
    recorder = WorkloadRecorder(generated.path)
    recorder.record_query(0, 2, "bw", count=100)
    recorder.record_update(0, count=5)
    loop = AdvisorLoop(manager, asr, recorder)
    current_cost, best = loop.recommend()
    retuned = loop.sweep(force=True)
    record(
        "adaptive_decision",
        format_table(
            ["field", "value"],
            [
                ["retuned", retuned],
                ["current pages/op", round(current_cost, 2)],
                ["best design", best.describe()],
            ],
            "Adaptive — one monitor→advise→re-materialize cycle",
        ),
    )
    assert retuned
