"""Quickstart: the paper's robot example, end to end.

Builds the engineering schema of section 2.2 (Figure 1), populates the
exact extension shown in the paper, materializes an access support
relation over the path

    ROBOT.Arm.MountedTool.ManufacturedBy.Location

and answers Query 1 — "Find the Robots which use a Tool manufactured in
Utopia" — three ways: by SQL-like surface syntax, by a planned backward
query through the ASR, and by raw pointer-chasing, comparing the page
accesses of the supported and unsupported strategies.

Run:  python examples/quickstart.py
"""

from repro.asr import ASRManager, Decomposition, Extension
from repro.costmodel import QueryCostModel
from repro.gom import ObjectBase, PathExpression, Schema
from repro.query import BackwardQuery, Planner, QueryEvaluator, SelectExecutor
from repro.storage import ClusteredObjectStore
from repro.workload import measure_profile


def build_robot_world() -> tuple[ObjectBase, PathExpression]:
    """The schema and extension of Figure 1."""
    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple("TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"})
    schema.define_tuple("ARM", {"Kinematics": "STRING", "MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_set("ROBOT_SET", "ROBOT")
    schema.validate()

    db = ObjectBase(schema)
    robclone = db.new("MANUFACTURER", Name="RobClone", Location="Utopia")
    welding = db.new("TOOL", Function="welding", ManufacturedBy=robclone)
    gripping = db.new("TOOL", Function="gripping", ManufacturedBy=robclone)
    arm_r2d2 = db.new("ARM", Kinematics="6-DOF", MountedTool=welding)
    arm_x4d5 = db.new("ARM", Kinematics="SCARA", MountedTool=gripping)
    arm_robi = db.new("ARM", Kinematics="7-DOF", MountedTool=gripping)
    robots = [
        db.new("ROBOT", Name="R2D2", Arm=arm_r2d2),
        db.new("ROBOT", Name="X4D5", Arm=arm_x4d5),
        db.new("ROBOT", Name="Robi", Arm=arm_robi),
    ]
    db.set_var("OurRobots", db.new_set("ROBOT_SET", robots), "ROBOT_SET")

    path = PathExpression.parse(schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location")
    return db, path


def main() -> None:
    db, path = build_robot_world()
    print(f"path expression: {path}   (n={path.n}, linear={path.is_linear})")

    # Physical layer: cluster objects by type and index the path.
    store = ClusteredObjectStore(
        {"ROBOT": 120, "ARM": 200, "TOOL": 80, "MANUFACTURER": 60}
    )
    store.attach(db)
    # Undecomposed, the ASR answers Query 1 with one lookup, which the
    # manager's price list ranks below the traversal.
    manager = ASRManager(db)
    asr = manager.create(path, Extension.CANONICAL, Decomposition.none(path.m))
    print(f"\naccess support relation ({asr.extension.value}, dec={asr.decomposition}):")
    print(asr.recompose().pretty())

    # 1) The paper's Query 1, through the SQL-like surface syntax.
    evaluator = QueryEvaluator(db, store)
    executor = SelectExecutor(db, Planner(manager), evaluator)
    report = executor.run(
        'select r.Name from r in OurRobots '
        'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
    )
    print(f"\nQuery 1 -> {sorted(report.rows)}   [{report.strategy}]")

    # 2) The same backward query, supported vs unsupported, page counts.
    query = BackwardQuery(path, 0, path.n, target="Utopia")
    supported = evaluator.evaluate_supported(query, asr)
    unsupported = evaluator.evaluate_unsupported(query)
    assert supported.cells == unsupported.cells
    print(
        f"\nbackward query page accesses: supported={supported.page_reads} "
        f"vs unsupported={unsupported.page_reads}"
    )

    # 3) What the analytical model predicts for this tiny world.
    #    (measure_profile only works on generated chains; here we hand-build
    #    the profile from the schema statistics.)
    from repro.costmodel import ApplicationProfile

    profile = ApplicationProfile(
        c=(3, 3, 2, 1, 1),
        d=(3, 3, 2, 1),
        fan=(1, 1, 1, 1),
        size=(120, 200, 80, 60, 16),
    )
    model = QueryCostModel(profile)
    print(
        "analytical model: unsupported "
        f"{model.qnas(0, 4, 'bw'):.0f} pages, supported "
        f"{model.q(Extension.CANONICAL, 0, 4, 'bw', Decomposition.none(4)):.0f} pages"
    )

    # Maintenance: re-point Robi's arm to a new tool from a new maker.
    acme = db.new("MANUFACTURER", Name="Acme", Location="Sirius")
    drill = db.new("TOOL", Function="drilling", ManufacturedBy=acme)
    robi = sorted(db.extent("ROBOT"), key=lambda o: o.value)[-1]
    db.set_attr(db.attr(robi, "Arm"), "MountedTool", drill)
    manager.check_consistency()
    report = executor.run(
        'select r.Name from r in OurRobots '
        'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
    )
    print(f"\nafter re-tooling Robi -> {sorted(report.rows)} (index kept consistent)")


if __name__ == "__main__":
    main()
