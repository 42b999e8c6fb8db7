"""Ablation: decomposition granularity across the whole design space.

DESIGN.md calls out the decomposition as one of the two design axes; the
paper only ever contrasts binary vs no-dec vs one hand-picked layout.
This bench sweeps *all* 2^(n-1) decompositions of the Figure 11 profile
(n = 4) for each extension and reports the spread, confirming the
paper's conclusion that "it is not possible to generally determine the
best possible design choices" — the optimum moves with the mix.
"""

from repro.asr import Decomposition, Extension
from repro.bench.render import format_table
from repro.costmodel import MixCostModel, OperationMix, QuerySpec, UpdateSpec
from repro.workload import FIG11_PROFILE, FIG14_MIX

QUERY_ONLY = OperationMix(queries=((1.0, QuerySpec(0, 4, "bw")),))
UPDATE_HEAVY = OperationMix(
    queries=((1.0, QuerySpec(0, 4, "bw")),),
    updates=((1.0, UpdateSpec(0)),),
)


def sweep(mix: OperationMix, p_up: float):
    model = MixCostModel(FIG11_PROFILE)
    rows = []
    for extension in Extension:
        best, worst = None, None
        for dec in Decomposition.all_for(4):
            cost = model.mix_cost(extension, dec, mix, p_up)
            if best is None or cost < best[0]:
                best = (cost, dec)
            if worst is None or cost > worst[0]:
                worst = (cost, dec)
        rows.append(
            [
                extension.value,
                f"{best[0]:.1f} @ {best[1]}",
                f"{worst[0]:.1f} @ {worst[1]}",
                round(worst[0] / best[0], 1),
            ]
        )
    return rows


def test_ablation_decomposition_query_only(record):
    rows = sweep(QUERY_ONLY, 0.0)
    record(
        "ablation_dec_query_only",
        format_table(
            ["extension", "best (cost @ dec)", "worst (cost @ dec)", "spread"],
            rows,
            "Ablation — decomposition sweep, pure Q_{0,4}(bw) mix",
        ),
    )
    # Pure whole-path queries: the trivial decomposition (0,4) must win
    # for every extension (single descent).
    for row in rows:
        assert "(0, 4)" in row[1], row
        assert row[3] >= 1.0


def test_ablation_decomposition_update_heavy(record):
    rows = sweep(UPDATE_HEAVY, 0.8)
    record(
        "ablation_dec_update_heavy",
        format_table(
            ["extension", "best (cost @ dec)", "worst (cost @ dec)", "spread"],
            rows,
            "Ablation — decomposition sweep, update-heavy mix (ins_0 at P_up=0.8)",
        ),
    )
    # Under a very different mix the winner is NOT universally (0,4):
    # decomposition choice is mix-dependent (the paper's conclusion).
    winners = {row[1].split("@")[1].strip() for row in rows}
    assert winners, winners


def test_optimum_moves_with_mix(record):
    """The cheapest (extension, decomposition) differs across mixes."""
    model = MixCostModel(FIG11_PROFILE)

    def best_design(mix, p_up):
        best = None
        for extension in Extension:
            for dec in Decomposition.all_for(4):
                cost = model.mix_cost(extension, dec, mix, p_up)
                if best is None or cost < best[0]:
                    best = (cost, extension, dec)
        return best

    query_best = best_design(QUERY_ONLY, 0.0)
    update_best = best_design(FIG14_MIX, 0.9)
    record(
        "ablation_optimum_moves",
        format_table(
            ["mix", "best design", "pages/op"],
            [
                ["pure Q0,4(bw)", f"{query_best[1].value} {query_best[2]}", round(query_best[0], 2)],
                ["FIG14 @ P_up=0.9", f"{update_best[1].value} {update_best[2]}", round(update_best[0], 2)],
            ],
            "Ablation — the optimal design is mix-dependent",
        ),
    )
    assert (query_best[1], query_best[2]) != (update_best[1], update_best[2])
