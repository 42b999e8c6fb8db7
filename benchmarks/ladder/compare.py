"""Compare two sets of ladder result files, cell by cell.

``python3 benchmarks/ladder/compare.py BASE CHANGE`` reads every result
file (``run.py --out``) under the two directories and prints, per
(metric, workload), each side's median and quartiles, the regression
bound from ``BENCHMARK.json`` and a verdict:

``same``
    neither rule below fires;
``worse``
    the change's median is worse than the base's by more than the bound;
``better``
    the change wins at least nine tenths of the seed-matched pairs (ties
    count for neither side) and the medians differ by more than the
    distance between the base's own quartiles;
``unresolved``
    the spread of either side is wider than the bound, so the cell can
    show neither — unless every run of one side beats every run of the
    other.

Per-layer metrics carry no bound and are listed as ``info``.  The exit
code is 1 when any cell reads ``worse`` or a side's error rate rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory: str) -> dict:
    """``{(workload, metric): {seed: value}}`` plus per-workload error counts."""
    cells: dict[tuple[str, str], dict[int, float]] = {}
    errors: dict[str, list[int]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            result = json.loads(path.read_text(encoding="utf-8"))
            workload, seed, metrics = result["workload"], result["seed"], result["metrics"]
        except (ValueError, KeyError, TypeError):
            continue  # span dumps and other leftovers are not result files
        for name, metric in metrics.items():
            cells.setdefault((workload, name), {})[seed] = metric["value"]
        failed, attempted = errors.setdefault(workload, [0, 0])
        errors[workload] = [failed + result["failed"], attempted + result["attempted"]]
    return {"cells": cells, "errors": errors}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """The cell's verdict and the change's signed worsening (share of base)."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    scale = abs(b_med) or 1.0
    worsening = sign * (c_med - b_med) / scale
    spread = max((b_q3 - b_q1) / scale, (c_q3 - c_q1) / (abs(c_med) or 1.0))
    if spread > bound:
        worst_change = max(sign * v for v in change.values())
        best_change = min(sign * v for v in change.values())
        worst_base = max(sign * v for v in base.values())
        best_base = min(sign * v for v in base.values())
        if worst_change < best_base:
            return "better", worsening
        if best_change > worst_base and worsening > bound:
            return "worse", worsening
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    pairs = [(base[seed], change[seed]) for seed in base.keys() & change.keys()]
    if not pairs:  # different seeds: match by rank instead
        pairs = list(zip(sorted(base.values()), sorted(change.values())))
    wins = sum(sign * c < sign * b for b, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - b_med) > (b_q3 - b_q1):
        return "better", worsening
    return "same", worsening


def compare(base_dir: str, change_dir: str, out=sys.stdout) -> int:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    base, change = load(base_dir), load(change_dir)
    status = 0
    header = (
        f"{'metric':<42}{'workload':<15}{'base median [q1, q3]':>36}"
        f"{'change median [q1, q3]':>36}{'worse by':>10}{'bound':>7}  verdict"
    )
    print(header, file=out)
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            for workload in (w["name"] for w in spec["workloads"]):
                key = (workload, metric["name"])
                if key not in base["cells"] or key not in change["cells"]:
                    continue
                b, c = base["cells"][key], change["cells"][key]
                bound = metric.get("bound")
                word, worsening = verdict(b, c, metric["better"], bound or float("inf"))
                if bound is None:
                    word = "info"
                elif word == "worse":
                    status = 1
                print(
                    f"{metric['name']:<42}{workload:<15}"
                    + "".join(
                        f"{med:>14.4f} [{q1:>8.4g}, {q3:>8.4g}]"
                        for q1, med, q3 in (quartiles(list(b.values())), quartiles(list(c.values())))
                    )
                    + f"{worsening * 100:>9.1f}%"
                    + (f"{bound * 100:>6.0f}%" if bound is not None else f"{'-':>7}")
                    + f"  {word}",
                    file=out,
                )
    for workload in sorted(base["errors"].keys() & change["errors"].keys()):
        (b_failed, b_tried), (c_failed, c_tried) = base["errors"][workload], change["errors"][workload]
        rose = c_failed / max(1, c_tried) > b_failed / max(1, b_tried)
        status |= rose
        print(
            f"{'error_rate':<42}{workload:<15}{f'{b_failed}/{b_tried}':>36}"
            f"{f'{c_failed}/{c_tried}':>36}{'':>10}{'any':>7}  {'worse' if rose else 'same'}",
            file=out,
        )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory of the base's result files")
    parser.add_argument("change", help="directory of the change's result files")
    args = parser.parse_args(argv)
    return compare(args.base, args.change)


if __name__ == "__main__":
    raise SystemExit(main())
