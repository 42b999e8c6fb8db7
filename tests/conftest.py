"""Shared fixtures: the paper's two example worlds and a generated chain."""

from __future__ import annotations

import pytest

from repro.costmodel import ApplicationProfile
from repro.gom import ObjectBase, PathExpression, Schema
from repro.telemetry.tracing import Trace, activate
from repro.workload import ChainGenerator


@pytest.fixture()
def trace():
    """A trace active on the test's thread: measured operations become its rows."""
    active = Trace("t-test", "test", "test", sampled=True)
    with activate(active):
        yield active


@pytest.fixture()
def robot_world():
    """The linear-path robot world of Figure 1 (section 2.2)."""
    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple(
        "TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"}
    )
    schema.define_tuple("ARM", {"Kinematics": "STRING", "MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_set("ROBOT_SET", "ROBOT")
    schema.validate()

    db = ObjectBase(schema)
    objects = {}
    objects["robclone"] = db.new("MANUFACTURER", Name="RobClone", Location="Utopia")
    objects["welding"] = db.new(
        "TOOL", Function="welding", ManufacturedBy=objects["robclone"]
    )
    objects["gripping"] = db.new(
        "TOOL", Function="gripping", ManufacturedBy=objects["robclone"]
    )
    objects["arm_r2d2"] = db.new("ARM", MountedTool=objects["welding"])
    objects["arm_x4d5"] = db.new("ARM", MountedTool=objects["gripping"])
    objects["arm_robi"] = db.new("ARM", MountedTool=objects["gripping"])
    objects["r2d2"] = db.new("ROBOT", Name="R2D2", Arm=objects["arm_r2d2"])
    objects["x4d5"] = db.new("ROBOT", Name="X4D5", Arm=objects["arm_x4d5"])
    objects["robi"] = db.new("ROBOT", Name="Robi", Arm=objects["arm_robi"])
    robots = db.new_set(
        "ROBOT_SET", [objects["r2d2"], objects["x4d5"], objects["robi"]]
    )
    db.set_var("OurRobots", robots, "ROBOT_SET")
    path = PathExpression.parse(
        schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location"
    )
    return db, path, objects


@pytest.fixture()
def company_world():
    """The set-valued company world of Figure 2 (section 2.3)."""
    schema = Schema()
    schema.define_tuple("BasePart", {"Name": "STRING", "Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.define_set("ProdSET", "Product")
    schema.define_tuple("Division", {"Name": "STRING", "Manufactures": "ProdSET"})
    schema.define_set("Company", "Division")
    schema.validate()

    db = ObjectBase(schema)
    objects = {}
    objects["door"] = db.new("BasePart", Name="Door", Price=1205.50)
    objects["pepper"] = db.new("BasePart", Name="Pepper", Price=0.12)
    objects["parts_sec"] = db.new_set("BasePartSET", [objects["door"]])
    objects["parts_sausage"] = db.new_set("BasePartSET", [objects["pepper"]])
    objects["sec"] = db.new(
        "Product", Name="560 SEC", Composition=objects["parts_sec"]
    )
    objects["trak"] = db.new("Product", Name="MB Trak")
    objects["sausage"] = db.new(
        "Product", Name="Sausage", Composition=objects["parts_sausage"]
    )
    objects["prods_auto"] = db.new_set("ProdSET", [objects["sec"]])
    objects["prods_truck"] = db.new_set("ProdSET", [objects["sec"], objects["trak"]])
    objects["auto"] = db.new(
        "Division", Name="Auto", Manufactures=objects["prods_auto"]
    )
    objects["truck"] = db.new(
        "Division", Name="Truck", Manufactures=objects["prods_truck"]
    )
    objects["space"] = db.new("Division", Name="Space")
    company = db.new_set(
        "Company", [objects["auto"], objects["truck"], objects["space"]]
    )
    db.set_var("Mercedes", company, "Company")
    path = PathExpression.parse(schema, "Division.Manufactures.Composition.Name")
    return db, path, objects


SMALL_CHAIN_PROFILE = ApplicationProfile(
    c=(20, 40, 80, 160),
    d=(18, 32, 64),
    fan=(2, 2, 2),
    size=(400, 300, 200, 100),
)


@pytest.fixture()
def small_chain():
    """A deterministic generated chain world (n = 3, set-valued steps)."""
    return ChainGenerator(seed=17).generate(SMALL_CHAIN_PROFILE)
