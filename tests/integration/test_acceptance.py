"""Acceptance: the complete paper story in one linear scenario.

A single narrative test a newcomer can read top to bottom — schema
definition, population, all four extensions, the paper's queries, the
cost model's headline predictions, index maintenance, persistence, and
self-tuning — asserting at each step what README.md promises.
"""

from repro import (
    ApplicationProfile,
    ASRManager,
    BackwardQuery,
    Decomposition,
    DesignAdvisor,
    Extension,
    NULL,
    ObjectBase,
    PathExpression,
    QueryCostModel,
    QueryEvaluator,
    Schema,
    SelectExecutor,
    build_extension,
)
from repro.asr import AdvisorLoop, WorkloadRecorder
from repro.costmodel import MeasuredCosts, OperationMix, QuerySpec, UpdateSpec
from repro.gom.serialization import dump_object_base, load_object_base
from repro.query import Planner


def test_full_story(tmp_path):
    # 1. Define the engineering schema of section 2.3 and populate it.
    schema = Schema()
    schema.define_tuple("BasePart", {"Name": "STRING", "Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.define_set("ProdSET", "Product")
    schema.define_tuple("Division", {"Name": "STRING", "Manufactures": "ProdSET"})
    schema.define_set("Company", "Division")
    schema.validate()

    db = ObjectBase(schema)
    door = db.new("BasePart", Name="Door", Price=1205.50)
    pepper = db.new("BasePart", Name="Pepper", Price=0.12)
    sec = db.new("Product", Name="560 SEC",
                 Composition=db.new_set("BasePartSET", [door]))
    trak = db.new("Product", Name="MB Trak")
    sausage = db.new("Product", Name="Sausage",
                     Composition=db.new_set("BasePartSET", [pepper]))
    auto = db.new("Division", Name="Auto",
                  Manufactures=db.new_set("ProdSET", [sec]))
    truck = db.new("Division", Name="Truck",
                   Manufactures=db.new_set("ProdSET", [sec, trak]))
    space = db.new("Division", Name="Space")
    db.set_var("Mercedes", db.new_set("Company", [auto, truck, space]), "Company")

    # 2. The path expression and its four extensions (section 3).
    path = PathExpression.parse(schema, "Division.Manufactures.Composition.Name")
    assert (path.n, path.k, path.m) == (3, 2, 5)
    sizes = {
        extension: len(build_extension(db, path, extension))
        for extension in Extension
    }
    assert sizes[Extension.CANONICAL] <= sizes[Extension.LEFT] <= sizes[Extension.FULL]
    assert sizes[Extension.CANONICAL] <= sizes[Extension.RIGHT] <= sizes[Extension.FULL]

    # 3. Index the path; answer Query 2 through it.  Undecomposed, the
    #    ASR answers with one lookup, and the manager's price list (over
    #    the measured profile) prices that below the traversal.
    manager = ASRManager(
        db, costs=MeasuredCosts(db, {"Division": 500, "Product": 400, "BasePart": 300})
    )
    asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
    executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
    report = executor.run(
        'select d.Name from d in Mercedes '
        'where d.Manufactures.Composition.Name = "Door"'
    )
    assert sorted(report.rows) == [("Auto",), ("Truck",)]
    assert report.strategy.startswith("asr-backward")

    # 4. Updates flow into the index automatically (section 6).
    db.set_insert(db.attr(trak, "Composition") or _give_set(db, trak), door)
    manager.check_consistency()
    assert sorted(
        executor.run(
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door"'
        ).rows
    ) == [("Auto",), ("Truck",)]

    # 5. The cost model prices the design space (sections 4-6).
    profile = ApplicationProfile(
        c=(1000, 5000, 10000, 50000),
        d=(900, 4000, 8000),
        fan=(2, 2, 3),
        size=(500, 400, 300, 100),
    )
    model = QueryCostModel(profile)
    scan = model.qnas(0, 3, "bw")
    supported = model.q(Extension.FULL, 0, 3, "bw", Decomposition.binary(3))
    assert supported < scan / 10  # the paper's headline
    mix = OperationMix(
        queries=((1.0, QuerySpec(0, 3, "bw")),),
        updates=((1.0, UpdateSpec(2)),),
    )
    best = DesignAdvisor(profile).best(mix, p_up=0.1)
    assert best.extension is not None and best.normalized < 0.1

    # 6. Persistence round-trips the world and the ASR configuration.
    data = dump_object_base(db, [asr])
    loaded_db, loaded_asrs = load_object_base(data)
    assert len(loaded_db) == len(db)
    assert loaded_asrs[0].recompose().rows == asr.recompose().rows

    # 7. Self-tuning (section 7): a recorded workload re-designs the index.
    recorder = WorkloadRecorder(path)
    recorder.record_query(0, 3, "bw", count=50)
    recorder.record_update(2, count=2)
    _current, best = AdvisorLoop(manager, asr, recorder).recommend()
    assert best.extension is not None
    manager.check_consistency()


def _give_set(db, product):
    collection = db.new_set("BasePartSET")
    db.set_attr(product, "Composition", collection)
    return collection
