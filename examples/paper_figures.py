"""Regenerate every figure of the paper's evaluation as text tables.

One table per figure (4–9, 11–17), computed with the analytical cost
model over the paper's own parameter tables, rendered by the same table
as ``repro figures`` and ``benchmarks/results/figNN.txt``; see
EXPERIMENTS.md for the paper-vs-reproduction comparison.

Run:  python examples/paper_figures.py
"""

from repro.bench import figures


def main() -> None:
    print("\n\n".join(figures.render(figure_id) for figure_id in figures.FIGURES))


if __name__ == "__main__":
    main()
