"""Smoke test of the ladder at scale x1 (``pytest benchmarks/ladder``).

Outside tier-1's ``testpaths`` on purpose: it runs the real command line
eight times (four workloads, tracing off and on) for a second each.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "benchmarks/ladder/run.py"]
    assert SPEC["paths"] == ["benchmarks/ladder"]
    names = WORKLOAD_NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in SPEC["end_to_end"]
    )
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


def test_workloads_match_the_spec():
    sys.path.insert(0, str(HERE))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(HERE))
    assert list(WORKLOADS) == WORKLOAD_NAMES
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_the_declared_metrics(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--trace", trace,
            "--scale", "1", "--seconds", "1", "--seed", "7", "--out", str(out),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert completed.returncode == 0, completed.stdout
    result = json.loads(completed.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
    assert json.loads(out.read_text(encoding="utf-8"))["metrics"] == result["metrics"]
