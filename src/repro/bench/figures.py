"""Per-figure data series and the one table that renders them.

Each ``figNN_*`` function regenerates the series one figure of the paper
plots, as ``(xs, {series name: values})`` or a flat mapping for the
bar-style figures.  :data:`FIGURES` maps every figure id (``fig04`` …
``fig17``) to the text it renders — every section of that figure,
Fig. 11's ins₀ companion and the Fig. 14 / Fig. 17 break-evens
included.  ``repro figures``, ``examples/paper_figures.py`` and the
committed ``benchmarks/results/figNN.txt`` all go through
:func:`render`; ``tests/integration/test_figures_shapes.py`` asserts the
paper's qualitative claims (who wins, by what factor, where the
break-evens fall).
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.bench.render import format_series, format_table
from repro.costmodel.opmix import MixCostModel, OperationMix
from repro.costmodel.parameters import ApplicationProfile
from repro.costmodel.querycost import QueryCostModel
from repro.costmodel.storagecost import StorageModel
from repro.costmodel.updatecost import UpdateCostModel
from repro.workload import profiles as paper

EXTENSIONS = tuple(Extension)

SeriesData = tuple[Sequence[object], Mapping[str, Sequence[float]]]


def _decs(n: int) -> dict[str, Decomposition]:
    return {"bi": Decomposition.binary(n), "nodec": Decomposition.none(n)}


# ----------------------------------------------------------------------
# Figure 4 — access relation sizes per extension and decomposition
# ----------------------------------------------------------------------


def fig04_sizes(profile: ApplicationProfile | None = None) -> dict[str, float]:
    """Storage (KiB) of every extension × {no-dec, binary} (section 4.4.1)."""
    profile = profile or paper.FIG4_PROFILE
    storage = StorageModel(profile)
    result: dict[str, float] = {}
    for extension in EXTENSIONS:
        for label, dec in _decs(profile.n).items():
            result[f"{extension.value}/{label}"] = (
                storage.relation_bytes(extension, dec) / 1024.0
            )
    return result


# ----------------------------------------------------------------------
# Figure 5 — sizes while varying all d_i (no decomposition)
# ----------------------------------------------------------------------


def fig05_varying_d(
    ds: Sequence[float] = (2500, 5000, 7500, 10_000)
) -> SeriesData:
    """Figure 5 series: extension sizes (KiB) while sweeping all ``d_i``."""
    series: dict[str, list[float]] = {ext.value: [] for ext in EXTENSIONS}
    for d in ds:
        storage = StorageModel(paper.fig5_profile(d))
        for extension in EXTENSIONS:
            series[extension.value].append(
                storage.relation_bytes(extension, Decomposition.none(4)) / 1024.0
            )
    return ds, series


# ----------------------------------------------------------------------
# Figure 6 — Q_{0,4}(bw) per extension and decomposition
# ----------------------------------------------------------------------


def fig06_backward_query() -> dict[str, float]:
    """Figure 6: Q_{0,4}(bw) cost per design over the (corrected) profile."""
    model = QueryCostModel(paper.FIG6_PROFILE)
    result = {"nosupport": model.qnas(0, 4, "bw")}
    for extension in EXTENSIONS:
        for label, dec in _decs(4).items():
            result[f"{extension.value}/{label}"] = model.q(extension, 0, 4, "bw", dec)
    return result


# ----------------------------------------------------------------------
# Figure 7 — Q_{0,4}(bw) under varying object size (binary decomposition)
# ----------------------------------------------------------------------


def fig07_object_size(
    sizes: Sequence[float] = (100, 200, 300, 400, 500, 600, 700, 800)
) -> SeriesData:
    """Figure 7 series: Q_{0,4}(bw) cost while sweeping object sizes."""
    series: dict[str, list[float]] = {"nosupport": []}
    for extension in EXTENSIONS:
        series[extension.value] = []
    dec = Decomposition.binary(4)
    for size in sizes:
        model = QueryCostModel(paper.fig7_profile(size))
        series["nosupport"].append(model.qnas(0, 4, "bw"))
        for extension in EXTENSIONS:
            series[extension.value].append(model.q(extension, 0, 4, "bw", dec))
    return sizes, series


# ----------------------------------------------------------------------
# Figure 8 — which queries are supported: Q_{0,3}(bw) vs d_i
# ----------------------------------------------------------------------


def fig08_partial_query(
    ds: Sequence[float] = (10, 100, 1000, 2500, 5000, 7500, 10_000)
) -> SeriesData:
    """Figure 8 series: Q_{0,3}(bw) per design while sweeping ``d_i``."""
    series: dict[str, list[float]] = {
        "nosupport": [],
        "full/bi": [],
        "full/nodec": [],
        "left/bi": [],
        "left/nodec": [],
        "can (any dec)": [],
        "right (any dec)": [],
    }
    for d in ds:
        model = QueryCostModel(paper.fig8_profile(d))
        series["nosupport"].append(model.qnas(0, 3, "bw"))
        for extension in (Extension.FULL, Extension.LEFT):
            for label, dec in _decs(4).items():
                series[f"{extension.value}/{label}"].append(
                    model.q(extension, 0, 3, "bw", dec)
                )
        # Canonical and right cannot evaluate Q_{0,3}; Eq. 35 falls back.
        series["can (any dec)"].append(
            model.q(Extension.CANONICAL, 0, 3, "bw", Decomposition.binary(4))
        )
        series["right (any dec)"].append(
            model.q(Extension.RIGHT, 0, 3, "bw", Decomposition.binary(4))
        )
    return ds, series


# ----------------------------------------------------------------------
# Figure 9 — Q_{0,4}(bw) vs fan-out, canonical/left-favouring profile
# ----------------------------------------------------------------------


def fig09_fanout(
    fans: Sequence[float] = (10, 25, 50, 75, 100)
) -> SeriesData:
    """Figure 9 series: Q_{0,4}(bw) per extension while sweeping fan-out."""
    series: dict[str, list[float]] = {"nosupport": []}
    for extension in EXTENSIONS:
        series[extension.value] = []
    dec_cache = Decomposition.binary(4)
    for fan in fans:
        model = QueryCostModel(paper.fig9_profile(fan))
        series["nosupport"].append(model.qnas(0, 4, "bw"))
        for extension in EXTENSIONS:
            series[extension.value].append(model.q(extension, 0, 4, "bw", dec_cache))
    return fans, series


# ----------------------------------------------------------------------
# Figures 11/12 — update costs ins_3, two fixed profiles
# ----------------------------------------------------------------------


def fig11_update_costs(
    profile: ApplicationProfile | None = None, i: int = 3
) -> dict[str, float]:
    """Figure 11: ``ins_i`` update cost per design (default ``i = 3``)."""
    profile = profile or paper.FIG11_PROFILE
    model = UpdateCostModel(profile)
    result: dict[str, float] = {}
    for extension in EXTENSIONS:
        for label, dec in _decs(profile.n).items():
            result[f"{extension.value}/{label}"] = model.total(extension, i, dec)
    return result


def fig12_update_costs() -> dict[str, float]:
    """Figure 12: ``ins_3`` update cost under the second fixed profile."""
    return fig11_update_costs(paper.FIG12_PROFILE, i=3)


# ----------------------------------------------------------------------
# Figure 13 — update costs ins_1 under varying object sizes
# ----------------------------------------------------------------------


def fig13_update_sizes(
    sizes: Sequence[float] = (100, 200, 300, 400, 500, 600, 700, 800)
) -> SeriesData:
    """Figure 13 series: ``ins_1`` update cost while sweeping object sizes."""
    series: dict[str, list[float]] = {ext.value: [] for ext in EXTENSIONS}
    dec = Decomposition.binary(4)
    for size in sizes:
        model = UpdateCostModel(paper.fig13_profile(size))
        for extension in EXTENSIONS:
            series[extension.value].append(model.total(extension, 1, dec))
    return sizes, series


# ----------------------------------------------------------------------
# Figures 14/15 — operation mix vs P_up
# ----------------------------------------------------------------------


def _mix_series(
    profile: ApplicationProfile,
    mix: OperationMix,
    designs: Mapping[str, tuple[Extension, Decomposition]],
    p_ups: Sequence[float],
) -> SeriesData:
    model = MixCostModel(profile)
    series: dict[str, list[float]] = {"nosupport": []}
    for label in designs:
        series[label] = []
    for p_up in p_ups:
        series["nosupport"].append(1.0)
        for label, (extension, dec) in designs.items():
            series[label].append(model.normalized_cost(extension, dec, mix, p_up))
    return p_ups, series


_P_UPS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def fig14_opmix(p_ups: Sequence[float] = _P_UPS) -> SeriesData:
    """Figure 14 series: normalized mix cost vs ``P_up`` (binary dec)."""
    dec = Decomposition.binary(4)
    designs = {ext.value: (ext, dec) for ext in EXTENSIONS}
    return _mix_series(paper.FIG11_PROFILE, paper.FIG14_MIX, designs, p_ups)


def fig14_break_evens() -> dict[str, float | None]:
    """Figure 14's two break-even update probabilities."""
    model = MixCostModel(paper.FIG11_PROFILE)
    dec = Decomposition.binary(4)
    return {
        "left_vs_full": model.break_even(
            (Extension.LEFT, dec), (Extension.FULL, dec), paper.FIG14_MIX
        ),
        "nosupport_vs_full": model.break_even(
            None, (Extension.FULL, dec), paper.FIG14_MIX
        ),
    }


def fig15_opmix(p_ups: Sequence[float] = _P_UPS) -> SeriesData:
    """Figure 15 series: the Figure 14 mix under decomposition (0,3,4)."""
    dec = Decomposition.of(0, 3, 4)
    designs = {f"{ext.value}/(0,3,4)": (ext, dec) for ext in EXTENSIONS}
    return _mix_series(paper.FIG11_PROFILE, paper.FIG14_MIX, designs, p_ups)


# ----------------------------------------------------------------------
# Figure 16 — left vs full, n = 5, two decompositions
# ----------------------------------------------------------------------


def fig16_left_vs_full(p_ups: Sequence[float] = _P_UPS) -> SeriesData:
    """Figure 16 series: left vs full under two decompositions (n = 5)."""
    binary = Decomposition.binary(5)
    coarse = Decomposition.of(0, 3, 4, 5)
    designs = {
        "left/bi": (Extension.LEFT, binary),
        "full/bi": (Extension.FULL, binary),
        "left/(0,3,4,5)": (Extension.LEFT, coarse),
        "full/(0,3,4,5)": (Extension.FULL, coarse),
    }
    return _mix_series(paper.FIG16_PROFILE, paper.FIG16_MIX, designs, p_ups)


# ----------------------------------------------------------------------
# Figure 17 — right vs full, n = 5, two decompositions
# ----------------------------------------------------------------------


@functools.cache
def fig17_right_vs_full(
    p_ups: Sequence[float] = (0.001, 0.0025, 0.005, 0.0075, 0.01, 0.05, 0.1, 0.5, 0.9)
) -> SeriesData:
    """Figure 17 series: right vs full under two decompositions (n = 5).

    The slowest series by far (~1.7 s), so it is memoised per ``p_ups``
    (a tuple) and shared by :func:`render` and every other caller; the
    shared result is read-only — each series a tuple in a read-only
    mapping.
    """
    binary = Decomposition.binary(5)
    coarse = Decomposition.of(0, 3, 5)
    designs = {
        "right/bi": (Extension.RIGHT, binary),
        "full/bi": (Extension.FULL, binary),
        "right/(0,3,5)": (Extension.RIGHT, coarse),
        "full/(0,3,5)": (Extension.FULL, coarse),
    }
    xs, series = _mix_series(paper.FIG17_PROFILE, paper.FIG17_MIX, designs, p_ups)
    frozen = {name: tuple(values) for name, values in series.items()}
    return xs, MappingProxyType(frozen)


def fig17_break_even() -> float | None:
    """Figure 17's right-vs-full break-even under decomposition (0,3,5)."""
    model = MixCostModel(paper.FIG17_PROFILE)
    coarse = Decomposition.of(0, 3, 5)
    return model.break_even(
        (Extension.RIGHT, coarse), (Extension.FULL, coarse), paper.FIG17_MIX
    )


# ----------------------------------------------------------------------
# The one renderer: figure id -> its sections
# ----------------------------------------------------------------------


def _designs(data: Mapping[str, float], unit: str, title: str) -> str:
    return format_table(["design", unit], sorted(data.items()), title)


#: Every figure's sections, in order; each entry renders one text table.
_SECTIONS: dict[str, tuple[Callable[[], str], ...]] = {
    "fig04": (lambda: _designs(
        fig04_sizes(), "KiB", "Figure 4 — access support relation sizes (KiB)"),),
    "fig05": (lambda: format_series(
        "d_i", *fig05_varying_d(),
        title="Figure 5 — sizes (KiB) under varying d_i, no dec"),),
    "fig06": (lambda: _designs(
        fig06_backward_query(), "page accesses", "Figure 6 — Q_{0,4}(bw) cost"),),
    "fig07": (lambda: format_series(
        "size_i", *fig07_object_size(),
        title="Figure 7 — Q_{0,4}(bw) cost under varying object size (binary dec)"),),
    "fig08": (lambda: format_series(
        "d_i", *fig08_partial_query(),
        title="Figure 8 — Q_{0,3}(bw) cost under varying d_i"),),
    "fig09": (lambda: format_series(
        "fan_i", *fig09_fanout(),
        title="Figure 9 — Q_{0,4}(bw) cost under varying fan-out (binary dec)"),),
    "fig11": (
        lambda: _designs(
            fig11_update_costs(), "page accesses", "Figure 11 — ins_3 update cost"),
        lambda: _designs(
            fig11_update_costs(i=0), "page accesses",
            "Figure 11 companion — ins_0 update cost"),
    ),
    "fig12": (lambda: _designs(
        fig12_update_costs(), "page accesses",
        "Figure 12 — ins_3 update cost (fan = 2,1,1,4)"),),
    "fig13": (lambda: format_series(
        "size_i", *fig13_update_sizes(),
        title="Figure 13 — ins_1 update cost under varying object size (binary dec)"),),
    "fig14": (
        lambda: format_series(
            "P_up", *fig14_opmix(),
            title="Figure 14 — normalized mix cost vs P_up (binary dec)"),
        lambda: format_table(
            ["pair", "P_up*"], sorted(fig14_break_evens().items()),
            "Figure 14 — break-even update probabilities "
            "(paper: left/full ≈ 0.3, nosupport/full ≈ 0.998)"),
    ),
    "fig15": (lambda: format_series(
        "P_up", *fig15_opmix(),
        title="Figure 15 — normalized mix cost vs P_up, decomposition (0,3,4)"),),
    "fig16": (lambda: format_series(
        "P_up", *fig16_left_vs_full(),
        title="Figure 16 — left vs full, dec (0,1,2,3,4,5) and (0,3,4,5)"),),
    "fig17": (
        lambda: format_series(
            "P_up", *fig17_right_vs_full(),
            title="Figure 17 — right vs full, dec (0,1,2,3,4,5) and (0,3,5)"),
        lambda: format_table(
            ["pair", "P_up*"],
            [["right/(0,3,5) vs full/(0,3,5)", fig17_break_even()]],
            "Figure 17 — break-even (paper: ≈ 0.005)"),
    ),
}

#: The figure ids, in paper order.
FIGURES = tuple(_SECTIONS)


@functools.cache
def render(figure_id: str) -> str:
    """All of one figure's sections as text, blank-line separated.

    Memoised: every section is a pure function of the paper's parameter
    tables, so a figure is computed once per process.  Raises
    :class:`KeyError` for an id not in :data:`FIGURES`.
    """
    return "\n\n".join(section() for section in _SECTIONS[figure_id])
