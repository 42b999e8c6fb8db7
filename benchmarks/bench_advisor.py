"""Physical-design advisor over the Figure 14 profile and mix.

The paper's conclusion motivates the whole cost model with
(semi-)automatic physical database design; this bench exercises the
exhaustive (extension × decomposition) search and pins down the regime
structure: ASR designs dominate at query-heavy mixes and the baseline
only wins at near-pure update loads.
"""

from repro.bench.render import format_table
from repro.costmodel import DesignAdvisor
from repro.workload import FIG11_PROFILE, FIG14_MIX


def test_advisor_ranking(record):
    advisor = DesignAdvisor(FIG11_PROFILE)
    choices = advisor.enumerate(FIG14_MIX, p_up=0.2)
    rows = [
        [
            choice.extension.value if choice.extension else "none",
            str(choice.decomposition) if choice.decomposition else "-",
            round(choice.cost, 2),
            round(choice.normalized, 4),
        ]
        for choice in choices[:8]
    ]
    record(
        "advisor_ranking",
        format_table(
            ["extension", "decomposition", "pages/op", "normalized"],
            rows,
            "Design advisor — top designs for the Figure 14 mix at P_up = 0.2",
        ),
    )
    # 4 extensions × 2^(n-1) decompositions + baseline.
    assert len(choices) == 4 * 2 ** (FIG11_PROFILE.n - 1) + 1
    best = choices[0]
    assert best.extension is not None
    assert best.normalized < 0.05


def test_advisor_regimes(record):
    advisor = DesignAdvisor(FIG11_PROFILE)
    rows = []
    for p_up in (0.0, 0.2, 0.5, 0.9, 1.0):
        best = advisor.best(FIG14_MIX, p_up)
        rows.append(
            [
                p_up,
                best.extension.value if best.extension else "none",
                str(best.decomposition) if best.decomposition else "-",
                round(best.cost, 2),
            ]
        )
    record(
        "advisor_regimes",
        format_table(
            ["P_up", "best extension", "decomposition", "pages/op"],
            rows,
            "Design advisor — best design per update probability",
        ),
    )
    # Query-dominated: an ASR design must win; pure updates: baseline wins.
    assert rows[0][1] != "none"
    assert rows[-1][1] == "none"


def test_advisor_storage_budget():
    """A storage budget prunes the big full/right designs."""
    advisor = DesignAdvisor(FIG11_PROFILE)
    unbounded = advisor.enumerate(FIG14_MIX, p_up=0.2)
    bounded = advisor.enumerate(FIG14_MIX, p_up=0.2, max_storage_bytes=512 * 1024)
    assert len(bounded) < len(unbounded)
    for choice in bounded:
        assert choice.storage_bytes <= 512 * 1024
