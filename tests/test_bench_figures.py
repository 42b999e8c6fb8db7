"""Structural tests of the figure-series functions and the one renderer."""

from pathlib import Path

import pytest

from repro.bench import figures
from repro.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestSeriesShapes:
    def test_fig04_keys(self):
        data = figures.fig04_sizes()
        assert set(data) == {
            f"{ext}/{layout}"
            for ext in ("can", "full", "left", "right")
            for layout in ("bi", "nodec")
        }
        assert all(value > 0 for value in data.values())

    def test_fig05_alignment(self):
        xs, series = figures.fig05_varying_d(ds=(2500, 10_000))
        assert len(xs) == 2
        for name, values in series.items():
            assert len(values) == 2, name

    def test_fig06_contains_baseline(self):
        data = figures.fig06_backward_query()
        assert "nosupport" in data
        assert len(data) == 9

    def test_fig07_custom_sweep(self):
        xs, series = figures.fig07_object_size(sizes=(150, 450))
        assert list(xs) == [150, 450]
        assert set(series) == {"nosupport", "can", "full", "left", "right"}

    def test_fig08_series_names(self):
        _xs, series = figures.fig08_partial_query(ds=(100,))
        assert "can (any dec)" in series and "full/nodec" in series

    def test_fig09_alignment(self):
        xs, series = figures.fig09_fanout(fans=(10, 100))
        assert all(len(v) == 2 for v in series.values())

    def test_fig11_parametrized_position(self):
        data0 = figures.fig11_update_costs(i=0)
        data3 = figures.fig11_update_costs(i=3)
        assert data0 != data3

    def test_fig13_alignment(self):
        xs, series = figures.fig13_update_sizes(sizes=(100, 800))
        assert set(series) == {"can", "full", "left", "right"}

    def test_fig14_nosupport_normalized_to_one(self):
        _xs, series = figures.fig14_opmix(p_ups=(0.2, 0.8))
        assert series["nosupport"] == [1.0, 1.0]

    def test_fig15_design_labels(self):
        _xs, series = figures.fig15_opmix(p_ups=(0.5,))
        assert any("(0,3,4)" in name for name in series if name != "nosupport")

    def test_fig16_and_17_design_counts(self):
        _xs, s16 = figures.fig16_left_vs_full(p_ups=(0.5,))
        _xs, s17 = figures.fig17_right_vs_full(p_ups=(0.5,))
        assert len([n for n in s16 if n != "nosupport"]) == 4
        assert len([n for n in s17 if n != "nosupport"]) == 4

    def test_break_even_helpers_types(self):
        points = figures.fig14_break_evens()
        assert set(points) == {"left_vs_full", "nosupport_vs_full"}
        value = figures.fig17_break_even()
        assert value is None or 0.0 <= value <= 1.0

    def test_all_series_positive(self):
        for xs, series in (
            figures.fig07_object_size(sizes=(200,)),
            figures.fig09_fanout(fans=(25,)),
            figures.fig13_update_sizes(sizes=(300,)),
        ):
            for name, values in series.items():
                assert all(value >= 0 for value in values), name


class TestOneRenderer:
    @pytest.mark.parametrize("figure_id", figures.FIGURES)
    def test_committed_results_equal_the_renderer(self, figure_id):
        # Regenerate with: python -m repro figures --only figNN > benchmarks/results/figNN.txt
        committed = (RESULTS / f"{figure_id}.txt").read_text(encoding="utf-8")
        assert committed == figures.render(figure_id) + "\n"

    def test_every_committed_figure_has_an_id(self):
        assert sorted(path.stem for path in RESULTS.glob("fig*.txt")) == list(
            figures.FIGURES
        )

    def test_cli_prints_the_renderer(self, capsys):
        assert main(["figures", "--only", "fig14"]) == 0
        assert capsys.readouterr().out == figures.render("fig14") + "\n"
