"""Schema-wide budgeted design: the storage/performance frontier.

Two competing path workloads (a hot whole-path lookup mix and a cold
prefix mix) share one storage budget; the greedy schema advisor trades
index space between them.  The bench sweeps the budget and reports the
frontier — weighted pages/op versus bytes spent.
"""

from repro.bench.render import format_table
from repro.costmodel import (
    ApplicationProfile,
    OperationMix,
    PathWorkload,
    QuerySpec,
    SchemaDesignAdvisor,
    UpdateSpec,
)

WORKLOADS = [
    PathWorkload(
        "orders",
        ApplicationProfile(
            c=(1000, 5000, 10000, 50000, 100000),
            d=(900, 4000, 8000, 20000),
            fan=(2, 2, 3, 4),
            size=(500, 400, 300, 300, 100),
        ),
        OperationMix(
            queries=((1.0, QuerySpec(0, 4, "bw")),),
            updates=((1.0, UpdateSpec(3)),),
        ),
        p_up=0.1,
        weight=10.0,
    ),
    PathWorkload(
        "audit",
        ApplicationProfile(
            c=(100, 500, 1000),
            d=(90, 400),
            fan=(2, 2),
            size=(300, 200, 100),
        ),
        OperationMix(
            queries=((1.0, QuerySpec(0, 2, "bw")),),
            updates=((1.0, UpdateSpec(0)),),
        ),
        p_up=0.1,
        weight=1.0,
    ),
]

BUDGETS_KIB = (0, 16, 64, 256, 1024, None)


def test_schema_budget_frontier(record):
    advisor = SchemaDesignAdvisor(WORKLOADS)
    rows = []
    for budget_kib in BUDGETS_KIB:
        design = advisor.plan(None if budget_kib is None else budget_kib * 1024)
        rows.append(
            [
                "unbounded" if budget_kib is None else budget_kib,
                round(design.total_bytes / 1024, 1),
                round(design.weighted_cost, 2),
                round(design.savings_factor, 1),
            ]
        )
    record(
        "schema_budget_frontier",
        format_table(
            ["budget KiB", "used KiB", "weighted pages/op", "x vs baseline"],
            rows,
            "Schema advisor — storage/performance frontier over two paths",
        ),
    )
    costs = [row[2] for row in rows]
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:])), costs
    assert rows[-1][3] > 10  # unbounded budget: order-of-magnitude savings
