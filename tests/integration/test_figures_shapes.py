"""Every figure's qualitative claims, over the sweeps the figures plot.

The series come from :mod:`repro.bench.figures` (the same functions
``repro figures`` and ``benchmarks/results/figNN.txt`` render); each
test pins who wins, by what factor, and where the break-evens fall.
All of it is closed-form, so the whole file runs in milliseconds.
"""

from repro.asr import Decomposition, Extension
from repro.bench import figures
from repro.costmodel import MixCostModel
from repro.workload import FIG11_PROFILE, FIG14_MIX

EXTENSIONS = ("can", "full", "left", "right")


class TestStorageFigures:
    def test_fig4(self):
        """Canonical/left are drastically smaller than right/full, and
        binary decomposition saves roughly a factor of two."""
        data = figures.fig04_sizes()
        for layout in ("bi", "nodec"):
            assert data[f"can/{layout}"] < data[f"right/{layout}"] / 4
            assert data[f"left/{layout}"] < data[f"right/{layout}"] / 4
            assert data[f"right/{layout}"] <= data[f"full/{layout}"]
        assert data["can/bi"] < data["full/bi"] / 4
        for extension in EXTENSIONS:
            ratio = data[f"{extension}/nodec"] / data[f"{extension}/bi"]
            assert 1.5 <= ratio <= 4.0, (extension, ratio)

    def test_fig5_convergence(self):
        """Sizes grow with d_i and converge as d_i approaches c_i."""
        ds, series = figures.fig05_varying_d()
        for name, values in series.items():
            assert values == sorted(values), f"{name} not monotone in d"

        def spread(index: int) -> float:
            column = [series[name][index] for name in series]
            return max(column) / min(column)

        assert spread(len(ds) - 1) < spread(0)
        assert spread(len(ds) - 1) < 1.5


class TestQueryFigures:
    def test_fig6(self):
        """Support beats the scan by orders of magnitude; one descent
        (no decomposition) beats one per partition."""
        data = figures.fig06_backward_query()
        for extension in EXTENSIONS:
            assert data[f"{extension}/nodec"] <= data[f"{extension}/bi"]
            assert data[f"{extension}/bi"] < data["nosupport"] / 10

    def test_fig7(self):
        """Object size moves only the unsupported cost."""
        _sizes, series = figures.fig07_object_size()
        for extension in EXTENSIONS:
            assert max(series[extension]) == min(series[extension]), extension
        assert series["full"] == series["left"] == series["right"]
        unsupported = series["nosupport"]
        assert unsupported == sorted(unsupported)
        assert unsupported[-1] > 2 * unsupported[0]

    def test_fig8(self):
        """Only left/full support Q_{0,3}; undecomposed they end up
        costlier than no support, binary-decomposed they stay cheap."""
        _ds, series = figures.fig08_partial_query()
        assert series["can (any dec)"] == series["nosupport"]
        assert series["right (any dec)"] == series["nosupport"]
        for extension in ("full", "left"):
            assert series[f"{extension}/bi"][-1] < series["nosupport"][-1] / 10
            assert series[f"{extension}/nodec"][-1] > series["nosupport"][-1]
        assert series["full/nodec"][0] < series["nosupport"][0]

    def test_fig9(self):
        """Canonical and left beat full and right across the fan-out sweep."""
        fans, series = figures.fig09_fanout()
        for index in range(len(fans)):
            for small in ("can", "left"):
                assert series[small][index] <= series["full"][index]
                assert series[small][index] <= series["right"][index]
            assert series["full"][index] < series["nosupport"][index] / 50


class TestUpdateFigures:
    def test_fig11(self):
        """ins_3: left/binary is far superior to right and canonical."""
        data = figures.fig11_update_costs()
        assert data["left/bi"] < data["right/bi"] / 20
        assert data["left/bi"] < data["can/bi"] / 20
        assert data["full/bi"] < data["can/bi"] / 10

    def test_fig11_ins0_reversal(self):
        """"For an update ins_0 the right-complete extension would be
        drastically better" — the reversal at the other end."""
        data = figures.fig11_update_costs(i=0)
        assert data["right/bi"] < data["left/bi"]

    def test_fig12(self):
        """Left and full almost comparable; canonical and right costly."""
        data = figures.fig12_update_costs()
        ratio = max(data["left/bi"], data["full/bi"]) / min(
            data["left/bi"], data["full/bi"]
        )
        assert ratio < 2.5
        assert data["can/bi"] > 10 * data["left/bi"]
        assert data["right/bi"] > 10 * data["left/bi"]

    def test_fig13(self):
        """Canonical/right grow with object size; full is flat and left
        barely moves."""
        _sizes, series = figures.fig13_update_sizes()
        assert series["can"][-1] > 1.5 * series["can"][0]
        assert series["right"][-1] > 1.5 * series["right"][0]
        assert series["full"][-1] == series["full"][0]
        assert series["left"][-1] <= 1.2 * series["left"][0]
        assert series["full"][-1] <= series["left"][-1]
        assert series["left"][-1] < series["can"][-1]
        assert series["left"][-1] < series["right"][-1]


class TestMixFigures:
    def test_fig14(self):
        """Left and full neck-and-neck at low P_up, left loses once
        updates dominate; canonical and right dominated throughout."""
        p_ups, series = figures.fig14_opmix()
        assert series["left"][0] < series["full"][0] * 1.05
        assert series["left"][-1] > series["full"][-1]
        for index in range(len(p_ups)):
            assert series["full"][index] < series["can"][index]
            assert series["full"][index] < series["right"][index]

    def test_fig14_break_evens(self):
        points = figures.fig14_break_evens()
        assert 0.02 < points["left_vs_full"] < 0.45
        assert points["nosupport_vs_full"] > 0.97

    def test_fig15(self):
        """Under (0,3,4) left beats its own binary layout at every P_up."""
        model = MixCostModel(FIG11_PROFILE)
        for p_up in (0.1, 0.5, 0.9):
            coarse = model.mix_cost(
                Extension.LEFT, Decomposition.of(0, 3, 4), FIG14_MIX, p_up
            )
            binary = model.mix_cost(
                Extension.LEFT, Decomposition.binary(4), FIG14_MIX, p_up
            )
            assert coarse < binary, (p_up, coarse, binary)
        _p_ups, series = figures.fig15_opmix()
        assert series["left/(0,3,4)"][0] < 0.05
        assert series["full/(0,3,4)"][0] < 0.2

    def test_fig16(self):
        """Every design beats no support at low P_up, costs rise with
        P_up, and full overtakes left as updates dominate."""
        _p_ups, series = figures.fig16_left_vs_full()
        for name, values in series.items():
            if name != "nosupport":
                assert values[0] < 0.2, (name, values[0])
                assert values == sorted(values), name
        assert series["full/bi"][-1] < series["left/bi"][-1]
        assert series["full/(0,3,4,5)"][-1] < series["left/(0,3,4,5)"][-1]

    def test_fig17(self):
        """(0,3,5) always beats binary; right beats full under (0,3,5)
        only at the lowest update probabilities."""
        p_ups, series = figures.fig17_right_vs_full()
        for index in range(len(p_ups)):
            assert series["right/(0,3,5)"][index] < series["right/bi"][index]
            assert series["full/(0,3,5)"][index] < series["full/bi"][index]
        assert series["right/(0,3,5)"][0] < series["full/(0,3,5)"][0]
        assert series["right/(0,3,5)"][-1] > series["full/(0,3,5)"][-1]

    def test_fig17_break_even(self):
        point = figures.fig17_break_even()
        assert point is not None and 0.001 < point < 0.05
