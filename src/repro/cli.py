"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [--only figNN]``
    Regenerate the paper's evaluation figures as text tables.

``advise --profile profile.json [--pup P] [--top N] [--budget-kib K]``
    Rank physical designs for a profile and operation mix.  The JSON
    file holds the Figure 3 parameters and (optionally) the mix::

        {
          "c": [1000, 5000, 10000, 50000, 100000],
          "d": [900, 4000, 8000, 20000],
          "fan": [2, 2, 3, 4],
          "size": [500, 400, 300, 300, 100],
          "queries": [[0.5, 0, 4, "bw"], [0.5, 0, 3, "bw"]],
          "updates": [[1.0, 3]]
        }

``validate [--seed S] [--scale X] [--trace trace.json]``
    Generate a chain object base, run queries on the page-counting
    simulator, and print measured vs model page counts.  The run
    executes under one :class:`~repro.context.ExecutionContext`; with
    ``--trace`` a :class:`~repro.telemetry.tracing.Trace` is active
    around it and is written as JSON beside the context's counters:
    one row per measured operation (seconds and page accesses),
    operation counters, metric snapshots interleaved at phase
    boundaries.

``demo``
    The robot quickstart (paper Query 1) end to end.

``export-demo --out db.json``
    Write the paper's Company world (Figure 2), with a full-extension
    ASR configuration, to a JSON database file.

``profile --db db.json --path "Division.Manufactures.Composition.Name"``
    Load a saved database and print the measured Figure 3 parameters of
    a path over it.

``serve [--port P] [--clients N] [--max-inflight M]
[--io-dist D] [--profile fig14|fig16|queries] [--ops K]
[--query-fraction F] [--query-cache-size Z] [--drift-interval SEC]
[--chaos-rate R] [--op-deadline-ms D] [--shed-backoff-ms B]
[--healer-interval SEC] [--no-healer]
[--advisor-interval SEC] [--advisor-threshold G] [--advisor-dry-run]
[--trace-sample-rate R] [--slow-trace-ms MS] [--trace-capacity N]
[--out BENCH_serve_daemon.json] [--addr-file F]``
    Run the long-lived serving daemon (:mod:`repro.server`): the seeded
    operation stream replays in a loop — on an event loop behind a
    bounded admission queue that sheds (counting
    ``admission.rejected``) instead of queueing unboundedly; with
    ``--clients 0`` nothing is replayed — while an HTTP endpoint serves
    ``GET /metrics`` (live Prometheus exposition), ``GET /healthz`` (accounting invariant +
    quarantine state + hit-rate sanity as JSON; non-200 on violation),
    ``GET /stats`` (the ``repro stats`` JSON payload), and
    ``POST /query`` (a JSON ``{"query": "select …"}`` body executed
    through the query service — parsed, schema-validated, cost-planned
    and run over the shared pool, with compiled plans cached per
    ``(text, epoch)`` up to ``--query-cache-size`` entries; parse and
    validation errors come back as structured HTTP 400 bodies).  Drift
    ratios are re-published every ``--drift-interval`` seconds.
    ``--port 0`` binds an ephemeral port (written to ``--addr-file``);
    SIGINT/SIGTERM drain gracefully and write a final report to
    ``--out``.  A background healer retries quarantined ASRs with
    exponential backoff (``--no-healer`` disables it); ``--chaos-rate``
    arms seeded fault injection against the live stream;
    ``--op-deadline-ms`` sheds queue entries whose deadline passed
    before execution and ``--shed-backoff-ms`` paces the admission pump
    after a full-queue shed.  Per-ASR circuit breakers open after
    repeated faults and route queries to the degraded GOM traversal
    until a half-open probe heals them (:mod:`repro.resilience`).
    With ``--advisor-interval`` > 0 a background :class:`AdvisorLoop`
    re-costs the chain ASR's (extension, decomposition) against the
    live measured op mix every sweep and — past the hysteresis
    ``--advisor-threshold``, an evidence floor and a cooldown —
    re-materializes it online (one atomic swap, one epoch bump, the
    compiled-plan cache invalidates itself); ``GET /advisor`` exposes
    the loop's verdict history and ``--advisor-dry-run`` decides
    without acting.

``stats [--in BENCH_serve_daemon.json] [--json] [--prometheus]``
    Render the telemetry embedded in the daemon's drain report: the accounting
    invariant, the cost-model drift table (observed vs predicted page
    accesses per plan shape), and the metrics snapshot (counters,
    gauges, histograms).  ``--json`` emits the raw structures;
    ``--prometheus`` re-renders the snapshot in the Prometheus text
    exposition format.

``doctor [--db db.json] [--repair]``
    Verify the crash-consistency state of every ASR and, with
    ``--repair``, recover quarantined ones in place
    (:meth:`~repro.asr.manager.ASRManager.verify`).  Without ``--db`` a
    built-in demonstration injects a crash mid-flush first, so the
    command always has something to diagnose.  Exit code 0 means every
    ASR is consistent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.costmodel import (
    ApplicationProfile,
    DesignAdvisor,
    OperationMix,
    QueryCostModel,
    QuerySpec,
    UpdateSpec,
)
from repro.errors import ReproError
from repro.query import BackwardQuery, QueryEvaluator
from repro.telemetry import MetricsRegistry
from repro.telemetry.tracing import Trace, activate
from repro.workload import ChainGenerator, FIG14_MIX, measure_profile


def _io_dist_spec(spec: str) -> str:
    """Argparse type for ``--io-dist``: validate early, keep the string."""
    from repro.device import parse_io_dist

    try:
        parse_io_dist(spec, io_micros=150.0)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def _chaos_points_spec(spec: str) -> str:
    """Argparse type for ``--chaos-crash-points``: validate, keep the string."""
    from repro.resilience.chaos import parse_chaos_points

    try:
        parse_chaos_points(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def _serve_config_from(args) -> "object":
    """The :class:`~repro.bench.serve.ServeConfig` an argparse bundle names."""
    from repro.bench.serve import ServeConfig

    return ServeConfig(
        clients=args.clients,
        ops=args.ops,
        seed=args.seed,
        capacity=args.capacity,
        io_micros=args.io_micros,
        io_dist=args.io_dist,
        profile=args.profile,
        query_fraction=args.query_fraction,
        max_inflight=args.max_inflight,
        query_cache_size=args.query_cache_size,
        op_deadline_ms=args.op_deadline_ms,
        shed_backoff_ms=args.shed_backoff_ms,
        trace_sample_rate=args.trace_sample_rate,
        slow_trace_ms=args.slow_trace_ms,
        trace_capacity=args.trace_capacity,
    )


def _chaos_config_from(args) -> "object | None":
    """The :class:`~repro.resilience.ChaosConfig` an argparse bundle names."""
    from repro.resilience import ChaosConfig
    from repro.resilience.chaos import parse_chaos_points

    if args.chaos_rate <= 0.0:
        return None
    return ChaosConfig(
        rate=args.chaos_rate,
        burst=args.chaos_burst,
        points=parse_chaos_points(args.chaos_crash_points),
        seed=args.seed,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Access support relations for object bases "
        "(Kemper & Moerkotte, SIGMOD 1990) — reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figures = commands.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--only",
        metavar="figNN",
        help="one figure id, e.g. fig04, fig14 (default: all)",
    )

    advise = commands.add_parser("advise", help="rank physical designs")
    advise.add_argument("--profile", required=True, type=Path, help="JSON profile")
    advise.add_argument("--pup", type=float, default=0.2, help="update probability")
    advise.add_argument("--top", type=int, default=10, help="designs to print")
    advise.add_argument(
        "--budget-kib", type=float, default=None, help="storage budget in KiB"
    )

    validate = commands.add_parser(
        "validate", help="measured (simulator) vs model page counts"
    )
    validate.add_argument("--seed", type=int, default=7)
    validate.add_argument(
        "--scale", type=float, default=1.0, help="multiplier on the base world size"
    )
    validate.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write the run's trace (rows with seconds and pages) as JSON",
    )

    commands.add_parser("demo", help="run the robot quickstart")

    export_demo = commands.add_parser(
        "export-demo", help="write the Company demo world to a JSON file"
    )
    export_demo.add_argument("--out", required=True, type=Path)

    measure = commands.add_parser(
        "profile", help="measured Figure 3 parameters of a path over a saved db"
    )
    measure.add_argument("--db", required=True, type=Path, help="JSON database")
    measure.add_argument(
        "--path", required=True, help='path expression, e.g. "Division.Manufactures.Composition.Name"'
    )

    serve = commands.add_parser(
        "serve", help="long-lived serving daemon with an HTTP metrics endpoint"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="HTTP port (0 binds an ephemeral one)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument(
        "--clients",
        type=int,
        default=4,
        help="CPU executor threads (0 replays nothing)",
    )
    serve.add_argument(
        "--ops",
        type=int,
        default=200,
        help="length of the seeded stream replayed in a loop",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--capacity", type=int, default=256, help="shared buffer pool pages"
    )
    serve.add_argument(
        "--io-micros",
        type=float,
        default=150.0,
        help="simulated device latency per charged page, microseconds "
        "(the median for jittered distributions)",
    )
    serve.add_argument(
        "--io-dist",
        type=_io_dist_spec,
        default="fixed",
        help="device latency distribution: fixed (default), "
        "lognormal[:SIGMA], or a device class (nvme, ssd, disk)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="bound on concurrent in-flight operations "
        "(the admission limit; the daemon sheds beyond it)",
    )
    serve.add_argument(
        "--profile",
        choices=["fig14", "fig16", "queries"],
        default="fig14",
        help="application shape to serve (Figure 14 mix, Figure 16 mix, "
        "or textual selects through the query service)",
    )
    serve.add_argument(
        "--query-fraction",
        type=float,
        default=0.8,
        help="fraction of the stream that is queries (the rest are "
        "FIG14-style updates); 1.0 keeps the object graph quiescent",
    )
    serve.add_argument(
        "--query-cache-size",
        type=int,
        default=128,
        help="compiled-plan cache capacity for POST /query "
        "(0 disables caching)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="fraction of requests whose traces are retained head-on "
        "(seeded; 0 disables tracing unless --slow-trace-ms is set)",
    )
    serve.add_argument(
        "--slow-trace-ms",
        type=float,
        default=None,
        help="tail capture: always retain traces slower than this many "
        "milliseconds (and all shed/degraded/breaker-open outcomes)",
    )
    serve.add_argument(
        "--trace-capacity",
        type=int,
        default=512,
        help="ring-buffer capacity of the retained-trace store",
    )
    serve.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_serve_daemon.json"),
        help="where the drain report is written "
        "(default: BENCH_serve_daemon.json)",
    )
    serve.add_argument(
        "--drift-interval",
        type=float,
        default=5.0,
        help="seconds between drift/accounting re-publications",
    )
    serve.add_argument(
        "--addr-file",
        type=Path,
        default=None,
        help="write the bound host:port here once listening",
    )
    serve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        help="per-operation probability of arming a chaos fault point "
        "(0 disables chaos; strikes are seeded and replayable)",
    )
    serve.add_argument(
        "--chaos-burst",
        type=int,
        default=0,
        help="strikes per burst storm (a strike may expand into this "
        "many consecutive strikes; 0 disables storms)",
    )
    serve.add_argument(
        "--chaos-crash-points",
        type=_chaos_points_spec,
        default="asr.apply.mid-delta,asr.recover.replay",
        help="comma-separated fault points to strike; append ':crash' "
        "for a non-retryable SimulatedCrash instead of a transient fault",
    )
    serve.add_argument(
        "--op-deadline-ms",
        type=float,
        default=None,
        help="shed queue entries older than this at dequeue "
        "time, unexecuted (counted in deadline.shed, separately from "
        "admission rejects)",
    )
    serve.add_argument(
        "--shed-backoff-ms",
        type=float,
        default=1.0,
        help="admission-pump backoff after shedding into a "
        "full queue (jittered +-50%% from the run's seed)",
    )
    serve.add_argument(
        "--healer-interval",
        type=float,
        default=0.25,
        help="seconds between background healer sweeps of the "
        "quarantine set",
    )
    serve.add_argument(
        "--no-healer",
        dest="healer",
        action="store_false",
        help="disable the background healer (quarantined ASRs then wait "
        "for 'repro doctor --repair')",
    )
    serve.add_argument(
        "--advisor-interval",
        type=float,
        default=0.0,
        help="seconds between background advisor sweeps re-costing the "
        "chain ASR's (extension, decomposition) against the measured op "
        "mix (0 disables the advisor)",
    )
    serve.add_argument(
        "--advisor-threshold",
        type=float,
        default=1.2,
        help="hysteresis: predicted gain (current cost / best cost) a "
        "retune must clear before the ASR is re-materialized "
        "(default: 1.2)",
    )
    serve.add_argument(
        "--advisor-min-ops",
        type=int,
        default=32,
        help="evidence floor: recorded operations a sweep needs before "
        "the measured mix is trusted",
    )
    serve.add_argument(
        "--advisor-dry-run",
        action="store_true",
        help="decide but never touch the physical design (what *would* "
        "have been retuned shows up in GET /advisor)",
    )

    stats = commands.add_parser(
        "stats", help="render the telemetry embedded in a daemon drain report"
    )
    stats.add_argument(
        "--in",
        dest="input",
        type=Path,
        default=Path("BENCH_serve_daemon.json"),
        help="daemon drain report to read (default: BENCH_serve_daemon.json)",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the raw JSON structures"
    )
    stats.add_argument(
        "--prometheus",
        action="store_true",
        help="emit the metrics snapshot in Prometheus text format",
    )

    doctor = commands.add_parser(
        "doctor", help="verify (and repair) ASR crash-consistency state"
    )
    doctor.add_argument(
        "--db",
        type=Path,
        default=None,
        help="JSON database with ASR configurations "
        "(default: a built-in crash-injection demonstration)",
    )
    doctor.add_argument(
        "--repair", action="store_true", help="recover quarantined ASRs in place"
    )
    return parser


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _cmd_figures(args, out) -> int:
    from repro.bench import figures

    wanted = figures.FIGURES
    if args.only:
        if args.only not in wanted:
            print(f"unknown figure {args.only!r}; known: {list(wanted)}", file=out)
            return 2
        wanted = (args.only,)
    print("\n\n".join(figures.render(figure_id) for figure_id in wanted), file=out)
    return 0


def _load_profile(path: Path) -> tuple[ApplicationProfile, OperationMix]:
    data = json.loads(path.read_text())
    profile = ApplicationProfile(
        c=tuple(data["c"]),
        d=tuple(data["d"]),
        fan=tuple(data["fan"]),
        size=tuple(data.get("size", ())),
        shar=tuple(data.get("shar", ())),
    )
    if "queries" in data or "updates" in data:
        queries = tuple(
            (float(w), QuerySpec(int(i), int(j), str(kind)))
            for w, i, j, kind in data.get("queries", ())
        )
        updates = tuple(
            (float(w), UpdateSpec(int(i))) for w, i in data.get("updates", ())
        )
        mix = OperationMix(queries=queries, updates=updates)
    else:
        mix = FIG14_MIX
    return profile, mix


def _cmd_advise(args, out) -> int:
    profile, mix = _load_profile(args.profile)
    advisor = DesignAdvisor(profile)
    budget = args.budget_kib * 1024 if args.budget_kib is not None else None
    choices = advisor.enumerate(mix, args.pup, max_storage_bytes=budget)
    print(f"mix: {mix}", file=out)
    print(f"P_up = {args.pup:g}; {len(choices)} feasible designs", file=out)
    for rank, choice in enumerate(choices[: args.top], start=1):
        print(f"{rank:3d}. {choice.describe()}", file=out)
    return 0


def _cmd_validate(args, out) -> int:
    base = ApplicationProfile(
        c=(50, 100, 200, 400),
        d=(45, 85, 170),
        fan=(2, 2, 2),
        size=(500, 400, 300, 100),
    )
    scaled = ApplicationProfile(
        c=tuple(max(2, int(value * args.scale)) for value in base.c),
        d=tuple(int(value * args.scale) for value in base.d),
        fan=base.fan,
        size=base.size,
    )
    generated = ChainGenerator(seed=args.seed).generate(scaled)
    measured = measure_profile(generated)
    # The run executes under one context; ``--trace`` activates a trace
    # around it, so every measured operation becomes one of its rows and
    # the metric snapshots interleave with them.
    context = ExecutionContext(metrics=MetricsRegistry())
    trace = (
        Trace("validate", "validate", "validate", sampled=True)
        if args.trace is not None
        else None
    )
    with activate(trace):
        manager = ASRManager(generated.db, context=context)
        asr = manager.create(
            generated.path, Extension.FULL, Decomposition.binary(generated.path.m)
        )
        context.snapshot_metrics("after-build")
        evaluator = QueryEvaluator(generated.db, generated.store, context=context)
        model = QueryCostModel(measured)
        target = generated.layers[measured.n][0]
        query = BackwardQuery(generated.path, 0, measured.n, target=target)
        unsupported = evaluator.evaluate_unsupported(query)
        context.snapshot_metrics("after-unsupported")
        supported = evaluator.evaluate_supported(query, asr)
        context.snapshot_metrics("after-supported")
    print(
        f"world: c={tuple(int(x) for x in measured.c)} "
        f"(seed {args.seed}, scale {args.scale:g})",
        file=out,
    )
    print(
        f"Q_0,{measured.n}(bw): measured unsupported {unsupported.page_reads} "
        f"pages vs model {model.qnas(0, measured.n, 'bw'):.0f}",
        file=out,
    )
    print(
        f"Q_0,{measured.n}(bw): measured supported  {supported.page_reads} "
        f"pages vs model "
        f"{model.q(Extension.FULL, 0, measured.n, 'bw', Decomposition.binary(measured.n)):.0f}",
        file=out,
    )
    print(
        "results identical:", supported.cells == unsupported.cells, file=out
    )
    if trace is not None:
        context.close()
        trace.finish()
        args.trace.write_text(
            json.dumps({**context.to_dict(), **trace.as_dict()}, indent=2)
        )
        print(
            f"trace: {len(trace.spans)} span(s), "
            f"{len(context.metric_snapshots)} metric snapshot(s), "
            f"{context.stats.page_reads} reads / {context.stats.page_writes} "
            f"writes -> {args.trace}",
            file=out,
        )
    return 0


def _cmd_demo(args, out) -> int:
    from repro.gom import ObjectBase, PathExpression, Schema
    from repro.query import Planner, SelectExecutor

    schema = Schema()
    schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
    schema.define_tuple("TOOL", {"Function": "STRING", "ManufacturedBy": "MANUFACTURER"})
    schema.define_tuple("ARM", {"MountedTool": "TOOL"})
    schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
    schema.define_set("ROBOT_SET", "ROBOT")
    db = ObjectBase(schema)
    maker = db.new("MANUFACTURER", Name="RobClone", Location="Utopia")
    tools = [
        db.new("TOOL", Function="welding", ManufacturedBy=maker),
        db.new("TOOL", Function="gripping", ManufacturedBy=maker),
    ]
    robots = [
        db.new("ROBOT", Name=name, Arm=db.new("ARM", MountedTool=tool))
        for name, tool in [("R2D2", tools[0]), ("X4D5", tools[1]), ("Robi", tools[1])]
    ]
    db.set_var("OurRobots", db.new_set("ROBOT_SET", robots), "ROBOT_SET")
    path = PathExpression.parse(
        schema, "ROBOT.Arm.MountedTool.ManufacturedBy.Location"
    )
    manager = ASRManager(db)
    # Undecomposed, the ASR answers Query 1 with one lookup; the price
    # list picks it over the traversal (under binary it would not).
    asr = manager.create(path, Extension.CANONICAL, Decomposition.none(path.m))
    print(f"indexed {path} ({asr.tuple_count} complete paths)", file=out)
    executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
    compiled = executor.compile(
        'select r.Name from r in OurRobots '
        'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
    )
    report = executor.run_compiled(compiled)
    print(f"Query 1 -> {sorted(report.rows)}  [{report.strategy}]", file=out)
    for action in compiled.actions:
        print(f"plan: {action.plan.describe()}", file=out)
    print(f"page accesses: {report.describe_pages()}", file=out)
    return 0


def _cmd_export_demo(args, out) -> int:
    from repro.gom import ObjectBase, PathExpression, Schema
    from repro.gom.serialization import save

    schema = Schema()
    schema.define_tuple("BasePart", {"Name": "STRING", "Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.define_set("ProdSET", "Product")
    schema.define_tuple("Division", {"Name": "STRING", "Manufactures": "ProdSET"})
    schema.define_set("Company", "Division")
    db = ObjectBase(schema)
    door = db.new("BasePart", Name="Door", Price=1205.50)
    pepper = db.new("BasePart", Name="Pepper", Price=0.12)
    sec = db.new(
        "Product", Name="560 SEC", Composition=db.new_set("BasePartSET", [door])
    )
    trak = db.new("Product", Name="MB Trak")
    sausage = db.new(
        "Product", Name="Sausage", Composition=db.new_set("BasePartSET", [pepper])
    )
    auto = db.new("Division", Name="Auto", Manufactures=db.new_set("ProdSET", [sec]))
    truck = db.new(
        "Division", Name="Truck", Manufactures=db.new_set("ProdSET", [sec, trak])
    )
    space = db.new("Division", Name="Space")
    db.set_var("Mercedes", db.new_set("Company", [auto, truck, space]), "Company")
    path = PathExpression.parse(schema, "Division.Manufactures.Composition.Name")
    manager = ASRManager(db)
    manager.create(path, Extension.FULL, Decomposition.binary(path.m))
    save(db, args.out, asrs=manager.asrs)
    print(
        f"wrote {len(db)} objects and {len(manager.asrs)} ASR configuration(s) "
        f"to {args.out}",
        file=out,
    )
    return 0


def _cmd_profile(args, out) -> int:
    from repro.costmodel import profile_from_database
    from repro.gom import PathExpression
    from repro.gom.serialization import load

    db, asrs = load(args.db)
    path = PathExpression.parse(db.schema, args.path)
    profile = profile_from_database(db, path)
    print(f"measured profile of {path} over {args.db}:", file=out)
    print(f"  c    = {tuple(int(x) for x in profile.c)}", file=out)
    print(f"  d    = {tuple(int(x) for x in profile.d)}", file=out)
    print(f"  fan  = {tuple(round(x, 2) for x in profile.fan)}", file=out)
    print(f"  shar = {tuple(round(x, 2) for x in profile.shar)}", file=out)
    if asrs:
        print(f"  {len(asrs)} ASR configuration(s) restored alongside", file=out)
    return 0


def _doctor_demo_manager(out) -> ASRManager:
    """A tiny world with a freshly crashed flush, for the doctor demo."""
    from repro.errors import SimulatedCrash
    from repro.faults import FaultInjector
    from repro.gom import ObjectBase, PathExpression, Schema

    schema = Schema()
    schema.define_tuple("Part", {"Name": "STRING"})
    schema.define_set("PartSET", "Part")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "PartSET"})
    db = ObjectBase(schema)
    door = db.new("Part", Name="Door")
    wheel = db.new("Part", Name="Wheel")
    parts = db.new_set("PartSET", [door])
    db.new("Product", Name="560 SEC", Composition=parts)
    path = PathExpression.parse(schema, "Product.Composition.Name")
    injector = FaultInjector(seed=7)
    manager = ASRManager(db, fault_injector=injector)
    manager.create(path, Extension.FULL)
    injector.crash_at("asr.flush.mid-delta")
    print("injecting a crash at 'asr.flush.mid-delta' during an update…", file=out)
    try:
        with manager.batch():
            db.set_insert(parts, wheel)
    except SimulatedCrash as crash:
        print(f"  {crash}", file=out)
    return manager


def _cmd_doctor(args, out) -> int:
    if args.db is not None:
        from repro.gom.serialization import load

        db, asrs = load(args.db)
        manager = ASRManager(db)
        for asr in asrs:
            manager.register(asr)
    else:
        manager = _doctor_demo_manager(out)
    report = manager.verify(repair=args.repair)
    for entry in report["asrs"]:
        line = f"  {entry['path']} [{entry['extension']}]: {entry['state']}"
        if "journal" in entry:
            line += f" ({entry['journal']})"
        if "repair" in entry:
            line += f" -> {entry['repair']}"
        print(line, file=out)
    print(
        f"{len(report['asrs'])} ASR(s): {report['quarantined']} quarantined, "
        f"{report['recovered']} recovered, {report['failed']} repair failure(s)",
        file=out,
    )
    return 0 if report["ok"] else 1


def _cmd_serve(args, out) -> int:
    from repro.server import ServeDaemon, ServerConfig

    config = ServerConfig(
        serve=_serve_config_from(args),
        host=args.host,
        port=args.port,
        drift_interval=args.drift_interval,
        out=str(args.out),
        addr_file=str(args.addr_file) if args.addr_file is not None else None,
        healer=args.healer,
        healer_interval=args.healer_interval,
        chaos=_chaos_config_from(args),
        advisor_interval=args.advisor_interval,
        advisor_threshold=args.advisor_threshold,
        advisor_min_ops=args.advisor_min_ops,
        advisor_dry_run=args.advisor_dry_run,
    )
    try:
        return ServeDaemon(config).run(out=out)
    except ValueError as error:  # start() refused the configuration
        print(f"error: {error}", file=out)
        return 2


def _cmd_stats(args, out) -> int:
    from repro.telemetry import format_stats

    data = json.loads(args.input.read_text())
    metrics = data.get("metrics")
    drift = data.get("drift")
    accounting = data.get("accounting")
    if metrics is None and drift is None and accounting is None:
        print(
            f"error: {args.input} holds no telemetry "
            "(drain a 'repro serve' daemon to produce one)",
            file=out,
        )
        return 1
    if args.prometheus:
        registry = MetricsRegistry.from_snapshot(metrics or {})
        print(registry.render_prometheus(), end="", file=out)
        return 0
    if args.json:
        print(
            json.dumps(
                {"metrics": metrics, "drift": drift, "accounting": accounting},
                indent=2,
            ),
            file=out,
        )
        return 0
    print(format_stats(metrics, drift, accounting), file=out)
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "advise": _cmd_advise,
    "validate": _cmd_validate,
    "demo": _cmd_demo,
    "export-demo": _cmd_export_demo,
    "profile": _cmd_profile,
    "doctor": _cmd_doctor,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=out)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
