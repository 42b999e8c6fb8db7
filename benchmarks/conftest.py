"""Shared fixtures for the measured experiments beyond the paper's figures.

Each file under ``benchmarks/`` (the ladder aside) measures one
extension — ablations, baselines, the advisors, measured maintenance,
range queries — writes its rendered table to
``benchmarks/results/<name>.txt``, and asserts its qualitative claims.
The paper's own figures are rendered by ``repro figures`` into
``benchmarks/results/figNN.txt``.  Run with
``python -m pytest benchmarks --ignore=benchmarks/ladder``.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def record(request):
    """A callable ``record(name, text)`` persisting rendered series."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # Also surface in captured output for bench_output.txt readers.
        print(f"\n[{name}]\n{text}")

    return _record
