"""The ladder: one command from ``storage`` to ``POST /query``.

``python3 benchmarks/ladder/run.py`` runs all four workloads with tracing
off, checks answers, prints every end-to-end metric by name and unit,
then repeats each workload as a traced run and prints the per-layer
sheet.  With ``--workload NAME --trace 0|1`` it runs one of those eight
steps in this process and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) metrics that
``BENCHMARK.json`` declares.  Any correctness or invariant failure exits
non-zero.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import random
import subprocess
import sys
from pathlib import Path

import adapter
import layers
from measure import (
    SpanRecorder,
    half_means_ms,
    latency_summary,
    typical_ms,
    peak_rss_mb,
)
from workloads import (
    WORKLOADS,
    AsyncDriver,
    HttpDriver,
    SerialDriver,
    chain_block,
    http_get_json,
    select_block,
)
from worlds import POOL_FITS, RESULTS, DaemonChild, build, build_repeatedly

HERE = Path(__file__).resolve().parent

DEFAULT_SEED = 20260930
DEFAULT_SCALE = 25
#: Set-ups per untraced run; ``setup_s`` is the fastest.  A set-up is
#: one or two seconds of one thread's work, so a neighbour's burst
#: covers all of it, and two of three as easily as one: the median of
#: three moved 30% between two sets of runs of the same code.
SETUPS = 3


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the names and units this command must emit."""
    return json.loads((adapter.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Rig:
    """One run's world, daemon child, op blocks and driver."""

    def __init__(self, workload, seed: int, scale: int, setups: int, recorder=None) -> None:
        self.workload = workload
        self.child: DaemonChild | None = None
        self.child_rss_mb = 0.0
        try:
            if workload.driver == "http":
                self._open_daemon(seed, scale, setups, recorder)
            else:
                self._open_chain(seed, scale, setups, recorder)
        except BaseException:
            self.abort()
            raise

    def _open_daemon(self, seed: int, scale: int, setups: int, recorder) -> None:
        workload = self.workload
        # The parent's own copy of the world binds the texts and answers
        # the row check; the daemon child's is what is timed.
        self.world, _ = build("payload", seed, scale, POOL_FITS)
        self.phases = []
        for _ in range(setups):
            if self.child is not None:
                # Timed coming up and never sent a request: there is
                # nothing to drain and no invariant it could have broken.
                self.child.kill()
            self.child = DaemonChild(seed, scale)
            self.phases.append(
                {
                    "setup_s": self.child.setup_s,
                    "build_world_s": self.child.ready["build_world_s"],
                    "asr_build_s": self.child.ready["asr_build_s"],
                }
            )
        self.warm_block = select_block(self.world, seed + 1, workload.warm_ops)
        self.block = select_block(self.world, seed, workload.block_ops)
        self.driver = HttpDriver(self.child.address, workload.clients, recorder)
        self.tuples = self.child.ready["tuples"]
        self.pages = self.child.ready["stored_pages"]

    def _open_chain(self, seed: int, scale: int, setups: int, recorder) -> None:
        workload = self.workload
        self.world, self.phases = build_repeatedly(
            "chain", seed, scale, workload.capacity, setups, workload.io_micros
        )
        self.warm_block = chain_block(
            self.world, seed + 1, workload.warm_ops, workload.query_share
        )
        self.block = chain_block(self.world, seed, workload.block_ops, workload.query_share)
        if workload.driver == "async":
            self.driver = AsyncDriver(self.world, workload.clients, recorder)
        else:
            self.driver = SerialDriver(self.world, recorder)
        self.tuples = adapter.tuple_count(self.world)
        self.pages = adapter.stored_pages(self.world)

    def registry_snapshot(self) -> dict:
        if self.child is not None:
            return http_get_json(self.child.address, "/stats")["metrics"]
        return self.world.registry.snapshot()

    def check_answers(self, window) -> tuple[int, int]:
        """Sampled answers against the oracle; returns (checked, wrong).

        Chain workloads: every 50th query of the block (at least ten),
        planned and evaluated as the window did, must equal
        ``evaluate_unsupported``; this runs before the drain, so the
        window's open inserts are part of the state.  ``select-http``:
        the ``row_count`` of every 50th reply must equal in-process
        execution of the same text.
        """
        wrong = 0
        if self.child is not None:
            with self.world.pool.context() as context:
                for request, row_count in window.sampled_rows:
                    outcome = self.world.queries.execute(request.text, context=context)
                    wrong += outcome.payload()["row_count"] != row_count
            return len(window.sampled_rows), wrong
        world = self.world
        queries = [op.query for op in self.block if op.kind == "query"]
        sample = queries[:: min(50, max(1, len(queries) // 10))]
        planner = adapter.Planner(world.manager)
        oracle = adapter.QueryEvaluator(world.generated.db)
        for query in sample:
            plan = planner.plan(query)
            wrong += (
                oracle.evaluate(query, plan.asr).cells
                != oracle.evaluate_unsupported(query).cells
            )
        return len(sample), wrong

    def _stop_child(self) -> dict:
        final = self.child.stop()
        self.child = None
        if final["failures"]:
            raise AssertionError(f"daemon child invariants: {final['failures']}")
        self.child_rss_mb = max(self.child_rss_mb, final["peak_rss_mb"])
        return final

    def settle(self) -> dict:
        """Drain, then the steady-state and end-of-run invariants.

        Returns the tuple and page counts after the run; raises
        ``AssertionError`` when the graph did not end the size it
        started or an invariant of the program fails.
        """
        self.driver.drain()
        self.driver.close()
        if self.child is not None:
            final = self._stop_child()
            after = {"tuples": final["tuples"], "stored_pages": final["stored_pages"]}
        else:
            after = {
                "tuples": adapter.tuple_count(self.world),
                "stored_pages": adapter.stored_pages(self.world),
            }
            adapter.teardown_checks(self.world)
        if after["tuples"] != self.tuples:
            raise AssertionError(f"ASR tuples {self.tuples} -> {after['tuples']}")
        return after

    def abort(self) -> None:
        if self.child is not None:
            self.child.kill()


def _emit(kind: str, values: dict) -> dict:
    """``values`` as the contract's metrics object, checked against the spec."""
    declared = {metric["name"]: metric["unit"] for metric in spec()[kind]}
    missing, extra = declared.keys() - values.keys(), values.keys() - declared.keys()
    if missing or extra:
        raise SystemExit(
            f"ladder: BENCHMARK.json and the harness disagree on {kind}: "
            f"missing {sorted(missing)}, undeclared {sorted(extra)}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def _drift_lines(window) -> list[str]:
    return [
        f"    {name:<14} n={len(values):<6} first half {first:9.3f} ms   second half {second:9.3f} ms"
        for name, values in sorted(window.by_name("query", "update", "delete", every=True).items())
        for first, second in [half_means_ms(values)]
    ]


def run_untraced(workload, seed: int, seconds: float, scale: int) -> tuple[dict, list[str]]:
    rig = Rig(workload, seed, scale, SETUPS)
    try:
        rig.driver.warm(rig.warm_block)
        window = rig.driver.run(rig.block, seconds)
        checked, wrong = rig.check_answers(window)
        after = rig.settle()
    except BaseException:
        rig.abort()
        raise
    queries = latency_summary(window.latencies("query"))
    updates = latency_summary(window.latencies("update", "delete"))
    setups = [phase["setup_s"] for phase in rig.phases]
    values = {
        "setup_s": min(setups),
        "ops_per_s": window.ops_per_s(),
        "query_p50_ms": typical_ms(window.by_name("query")),
        "query_p95_ms": queries["p95_ms"],
        "page_touches_per_op": window.touches_per_op(),
        # As set up: update cycles leave split leaves behind (printed
        # below), which would tie the space leg to how many cycles ran.
        "stored_pages": rig.pages,
        "peak_rss_mb": rig.child_rss_mb or peak_rss_mb(),
    }
    failed = window.failed + wrong
    lines = [
        f"  set-ups {', '.join(f'{s:.3f}' for s in setups)} s "
        f"(last: build_world {rig.phases[-1]['build_world_s']:.3f} s + "
        f"asr_build {rig.phases[-1]['asr_build_s']:.3f} s)",
        f"  {window.ops} ops in {window.wall_s:.2f} s at {workload.callers} caller(s); timed "
        + (
            f"{window.ops / len(rig.block):.1f} cycles, each position's fastest repetition"
            if window.repeatable
            else "every sample"
        )
        + f": {queries['count']} queries, {updates['count']} updates "
        f"(update p50 {updates['p50_ms']:.3f} ms, p95 {updates['p95_ms']:.3f} ms)",
        f"  page misses per op {window.pool_delta('misses') / max(1, window.ops):.3f}; "
        f"error rate {failed}/{window.ops}",
        f"  checks: {checked} answers against the oracle, {wrong} wrong; "
        f"ASR tuples {rig.tuples} -> {after['tuples']}, "
        f"stored pages {rig.pages} -> {after['stored_pages']}",
        "  latency drift per op kind:",
        *_drift_lines(window),
    ]
    result = {
        "correct": failed == 0,
        "attempted": window.ops,
        "failed": failed,
        "metrics": _emit("end_to_end", values),
    }
    return result, lines


def _chain_sheets(world, block, seed: int) -> dict:
    """Every microbenchmark of a ``chain`` world that leaves it maintained."""
    rng = random.Random(seed)
    context = world.pool.acquire()
    state = (
        context,
        adapter.Planner(world.manager, drift=world.drift, breakers=world.breakers),
        adapter.QueryEvaluator(world.generated.db, world.generated.store, context=context),
    )
    try:
        sheet = {
            **layers.storage_sheet(world, rng),
            **layers.asr_lookup_sheet(world, rng),
            **layers.query_sheet(world, state, block, rng),
            **layers.plumbing_sheet(world, state, block),
            **layers.maintenance_sheet(world, state, seed),
            **layers.update_pages_sheet(world, state, seed),
        }
    finally:
        world.pool.release(context)
    sheet["asr.pages"] = adapter.asr_pages(world)
    return sheet


def _unmaintained_sheet(world, seed: int) -> dict:
    """What needs the ASR manager gone; the world is spent afterwards."""
    world.manager.close()
    return layers.gom_unmaintained_sheet(world, seed)


def _other_chain_half(seed: int, scale: int) -> dict:
    """The chain sheets for a workload that has no chain world of its own."""
    world, _ = build("chain", seed, scale, POOL_FITS)
    block = chain_block(world, seed, WORKLOADS["read-cpu"].block_ops, 1.0)
    sheet = _chain_sheets(world, block, seed)
    adapter.teardown_checks(world)
    sheet.update(_unmaintained_sheet(world, seed))
    return sheet


def _other_text_half(seed: int, scale: int) -> dict:
    """The text and HTTP sheets for a workload that has no daemon of its own."""
    world, _ = build("payload", seed, scale, POOL_FITS)
    requests = select_block(world, seed, WORKLOADS["select-http"].block_ops)
    sheet = layers.text_sheet(world, requests)
    child = DaemonChild(seed, scale)
    try:
        sheet.update(layers.http_sheet(child.address, requests))
        final = child.stop()
    except BaseException:
        child.kill()
        raise
    if final["failures"]:
        raise AssertionError(f"daemon child invariants: {final['failures']}")
    return sheet


def run_traced(workload, seed: int, seconds: float, scale: int) -> tuple[dict, list[str]]:
    """Half the time untraced, half traced, then the microbenchmarks."""
    recorder = SpanRecorder()
    rig = Rig(workload, seed, scale, 1, recorder)
    try:
        rig.driver.warm(rig.warm_block)
        untraced = rig.driver.run(rig.block, seconds / 2)
        before = rig.registry_snapshot()
        traced = rig.driver.run(rig.block, seconds / 2, traced=True)
        after = rig.registry_snapshot()
        checked, wrong = rig.check_answers(traced)
        kinds = {op.index: op.kind for op in rig.block}
        sheet = layers.window_sheet(workload, untraced, traced, before, after, recorder, kinds)
        sheet["asr.build_s"] = rig.phases[-1]["asr_build_s"]
        rig.driver.drain()
        if workload.driver == "http":
            sheet.update(layers.text_sheet(rig.world, rig.block))
            sheet.update(layers.http_sheet(rig.child.address, rig.block))
        else:
            sheet.update(_chain_sheets(rig.world, rig.block, seed))
        rig.settle()
        if workload.driver != "http":
            sheet.update(_unmaintained_sheet(rig.world, seed))
    except BaseException:
        rig.abort()
        raise
    del rig
    gc.collect()
    # The half of the sheet that needs the world this workload lacks.
    other = _other_chain_half if workload.driver == "http" else _other_text_half
    sheet.update(other(seed, scale))

    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{workload.name}-{seed}.json"
    recorder.write(spans)
    failed = traced.failed + untraced.failed + wrong
    rollup = recorder.rollup()
    lines = [
        f"  untraced {untraced.ops / untraced.wall_s:.1f} ops/s, traced "
        f"{traced.ops / traced.wall_s:.1f} ops/s: tracing overhead "
        f"{sheet['serve.trace_overhead_pct']:.1f}%; unattributed "
        f"{sheet['serve.unattributed_pct']:.1f}% of the callers' time",
        f"  checks: {checked} answers against the oracle, {wrong} wrong; "
        f"{len(recorder.records)} spans -> {spans.relative_to(adapter.ROOT)}",
        "  span                              count     total s      self s",
        *(
            f"    {name:<30}{entry['count']:>8}{entry['total_s']:>12.3f}{entry['self_s']:>12.3f}"
            for name, entry in sorted(rollup.items())
        ),
    ]
    result = {
        "correct": failed == 0,
        "attempted": traced.ops + untraced.ops,
        "failed": failed,
        "metrics": _emit("per_layer", sheet),
    }
    return result, lines


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace == "1" else run_untraced
    result, lines = runner(workload, args.seed, args.seconds, args.scale)
    print(
        f"ladder {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale}"
    )
    print("\n".join(lines))
    for name, metric in result["metrics"].items():
        print(f"  {name:<44}{metric['value']:>16.4f} {metric['unit']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps({"workload": workload.name, "seed": args.seed, "trace": args.trace, **result})
            + "\n",
            encoding="utf-8",
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload untraced, then each traced, one child process per run.

    A process per run keeps ``peak_rss_mb`` a property of one workload.
    """
    tag = args.tag or f"seed{args.seed}"
    status = 0
    for trace in ("0", "1"):
        for name in WORKLOADS:
            out = RESULTS / tag / f"{name}.trace{trace}.json"
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                name,
                "--trace",
                trace,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--scale",
                str(args.scale),
                "--out",
                str(out),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # Everything but the machine-readable last line.
            print("\n".join(completed.stdout.rstrip("\n").split("\n")[:-1]))
            if completed.returncode:
                print(f"ladder: {name} trace={trace} exited {completed.returncode}")
                status = 1
    print(f"result files under {(RESULTS / tag).relative_to(adapter.ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument(
        "--scale", type=int, default=DEFAULT_SCALE, help="multiple of SMALL_PROFILE"
    )
    parser.add_argument("--out", help="also write the result object to this file")
    parser.add_argument("--tag", help="results/ sub-directory of an all-workloads run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
