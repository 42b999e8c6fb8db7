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

``bench serve [--clients N] [--ops K] [--seed S] [--io-micros U]
[--io-dist D] [--max-inflight M] [--capacity C]
[--profile fig14|fig16|queries] [--query-fraction F]
[--query-cache-size Z] [--out BENCH_serve.json]``
    Serve a seeded operation mix over one shared bounded buffer pool
    and one ASR-managed chain database; report throughput, peak
    in-flight operations, and per-operation p50/p95/p99 latency
    (:mod:`repro.bench.serve`).  The stream runs once through the
    serving core: an asyncio event loop with up to ``--max-inflight``
    concurrent operations awaiting their simulated device charges
    (:mod:`repro.device`, distribution picked by ``--io-dist``) while
    CPU-bound plan evaluation is offloaded to ``N`` executor threads.
    The ``queries`` profile replays *textual* selects through the
    query-service pipeline (parse → validate → plan → execute, compiled
    plans cached by epoch) instead of pre-bound query objects.  The
    report embeds the run's metrics snapshot and cost-model drift
    report, which ``repro stats`` renders.

``bench chaos [--chaos-rate R] [--chaos-burst B]
[--chaos-crash-points P1,P2:crash] [--op-deadline-ms D]
[--soak-ops K] [--min-recoveries R] [--out BENCH_chaos.json]``
    The SLO-gated chaos soak (:mod:`repro.bench.chaos`): one daemon
    serves the seeded stream while a :class:`ChaosController` arms
    fault points from the live op stream and the background
    :class:`HealerLoop` races it.  Four phases — storm (until
    ``--soak-ops`` served *and* ``--min-recoveries`` heals), settle
    (chaos off, quarantine drains), healthz probe over real HTTP,
    graceful drain.  ``BENCH_chaos.json`` records p50/p95/p99 latency,
    strike/fault/recovery counts, MTTR, breaker transitions, and the
    end state; exit 0 iff the end state is consistent, accounting
    holds, and ``/healthz`` answered 200.

``bench advisor [--advisor-interval SEC] [--advisor-threshold G]
[--advisor-min-ops N] [--phase-seconds SEC] [--out BENCH_advisor.json]``
    The SLO-gated self-tuning soak (:mod:`repro.bench.advisor`): one
    daemon serves a query-heavy stream while the background
    :class:`AdvisorLoop` re-costs the chain ASR's design against the
    measured mix; mid-run the stream shifts update-heavy.  Gates — the
    loop converges to the cost-model-preferred design in each phase
    within two decisive sweeps, an injected build failure rolls back
    without losing the ASR or bumping the epoch, each applied retune
    bumps the epoch exactly once and the first post-retune ``POST
    /query`` recompiles (no stale-epoch cache hit), ``/healthz`` stays
    200 throughout, and the end state is consistent.  Exit 0 iff all
    gates hold.

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

``stats [--in BENCH_serve.json] [--json] [--prometheus]``
    Render the telemetry embedded in a serve report: the accounting
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


def _add_resilience_options(parser) -> None:
    """The resilience knobs ``bench chaos`` and ``serve`` share."""
    parser.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        help="per-operation probability of arming a chaos fault point "
        "(0 disables chaos; strikes are seeded and replayable)",
    )
    parser.add_argument(
        "--chaos-burst",
        type=int,
        default=0,
        help="strikes per burst storm (a strike may expand into this "
        "many consecutive strikes; 0 disables storms)",
    )
    parser.add_argument(
        "--chaos-crash-points",
        type=_chaos_points_spec,
        default="asr.apply.mid-delta,asr.recover.replay",
        help="comma-separated fault points to strike; append ':crash' "
        "for a non-retryable SimulatedCrash instead of a transient fault",
    )
    parser.add_argument(
        "--op-deadline-ms",
        type=float,
        default=None,
        help="shed queue entries older than this at dequeue "
        "time, unexecuted (counted in deadline.shed, separately from "
        "admission rejects)",
    )
    parser.add_argument(
        "--shed-backoff-ms",
        type=float,
        default=1.0,
        help="admission-pump backoff after shedding into a "
        "full queue (jittered +-50%% from the run's seed)",
    )
    parser.add_argument(
        "--healer-interval",
        type=float,
        default=0.25,
        help="seconds between background healer sweeps of the "
        "quarantine set",
    )
    parser.add_argument(
        "--no-healer",
        dest="healer",
        action="store_false",
        help="disable the background healer (quarantined ASRs then wait "
        "for 'repro doctor --repair')",
    )


def _add_advisor_options(parser, *, threshold: float) -> None:
    """The self-tuning knobs ``bench advisor`` and ``serve`` share.

    ``threshold`` is the subcommand's own ``--advisor-threshold``
    default: the soak's update-heavy phase's materialized winner is a
    close call, a daemon wants more hysteresis.
    """
    parser.add_argument(
        "--advisor-interval",
        type=float,
        default=0.0,
        help="seconds between background advisor sweeps re-costing the "
        "chain ASR's (extension, decomposition) against the measured op "
        "mix (0 disables the advisor; bench advisor defaults to 0.25)",
    )
    parser.add_argument(
        "--advisor-threshold",
        type=float,
        default=threshold,
        help="hysteresis: predicted gain (current cost / best cost) a "
        "retune must clear before the ASR is re-materialized "
        f"(default: {threshold:g})",
    )
    parser.add_argument(
        "--advisor-min-ops",
        type=int,
        default=32,
        help="evidence floor: recorded operations a sweep needs before "
        "the measured mix is trusted",
    )
    parser.add_argument(
        "--advisor-dry-run",
        action="store_true",
        help="decide but never touch the physical design (what *would* "
        "have been retuned shows up in GET /advisor)",
    )


def _add_serve_workload_options(parser, *, ops_help: str, out: str) -> None:
    """The workload/device options the ``bench`` actions and ``serve`` share.

    One definition for every subcommand, so a new knob (``--io-dist``,
    ``--max-inflight``, …) cannot drift between them.  ``out`` is the
    subcommand's own ``--out`` default: no two write the same report.
    """
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="CPU executor threads (0 replays nothing)",
    )
    parser.add_argument("--ops", type=int, default=200, help=ops_help)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--capacity", type=int, default=256, help="shared buffer pool pages"
    )
    parser.add_argument(
        "--io-micros",
        type=float,
        default=150.0,
        help="simulated device latency per charged page, microseconds "
        "(the median for jittered distributions)",
    )
    parser.add_argument(
        "--io-dist",
        type=_io_dist_spec,
        default="fixed",
        help="device latency distribution: fixed (default), "
        "lognormal[:SIGMA], or a device class (nvme, ssd, disk)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="bound on concurrent in-flight operations "
        "(the admission limit; the daemon sheds beyond it)",
    )
    parser.add_argument(
        "--profile",
        choices=["fig14", "fig16", "queries"],
        default="fig14",
        help="application shape to serve (Figure 14 mix, Figure 16 mix, "
        "or textual selects through the query service)",
    )
    parser.add_argument(
        "--query-fraction",
        type=float,
        default=0.8,
        help="fraction of the stream that is queries (the rest are "
        "FIG14-style updates); 1.0 keeps the object graph quiescent",
    )
    parser.add_argument(
        "--query-cache-size",
        type=int,
        default=128,
        help="compiled-plan cache capacity for POST /query "
        "(0 disables caching)",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="fraction of requests whose traces are retained head-on "
        "(seeded; 0 disables tracing unless --slow-trace-ms is set)",
    )
    parser.add_argument(
        "--slow-trace-ms",
        type=float,
        default=None,
        help="tail capture: always retain traces slower than this many "
        "milliseconds (and all shed/degraded/breaker-open outcomes)",
    )
    parser.add_argument(
        "--trace-capacity",
        type=int,
        default=512,
        help="ring-buffer capacity of the retained-trace store",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(out),
        help=f"where the JSON report is written (default: {out})",
    )


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
        op_deadline_ms=getattr(args, "op_deadline_ms", None),
        shed_backoff_ms=getattr(args, "shed_backoff_ms", 1.0),
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

    bench = commands.add_parser(
        "bench", help="runtime benchmarks (beyond the paper's page counts)"
    )
    actions = bench.add_subparsers(dest="action", required=True)
    for action, summary in (
        ("serve", "replay a seeded stream once through the serving core"),
        ("chaos", "SLO-gated chaos soak: fault storm against the healer"),
        ("advisor", "SLO-gated self-tuning soak: mix shift, rollback, epochs"),
    ):
        sub = actions.add_parser(action, help=summary)
        _add_serve_workload_options(
            sub,
            ops_help="operations to replay (chaos: per client-loop pass)",
            out=f"BENCH_{action}.json",
        )
        _add_resilience_options(sub)
        _add_advisor_options(sub, threshold=1.05)
        sub.add_argument(
            "--phase-seconds",
            type=float,
            default=20.0,
            help="bench advisor: wall-clock cap on each convergence phase",
        )
        sub.add_argument(
            "--soak-ops",
            type=int,
            default=400,
            help="bench chaos: operations the storm phase must serve",
        )
        sub.add_argument(
            "--min-recoveries",
            type=int,
            default=1,
            help="bench chaos: healer recoveries the storm phase waits for",
        )
        sub.add_argument(
            "--soak-seconds",
            type=float,
            default=60.0,
            help="bench chaos: wall-clock cap on the storm phase",
        )
        sub.add_argument(
            "--settle-seconds",
            type=float,
            default=10.0,
            help="bench chaos: wall-clock cap on the settle (heal) phase",
        )

    serve = commands.add_parser(
        "serve", help="long-lived serving daemon with an HTTP metrics endpoint"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="HTTP port (0 binds an ephemeral one)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    _add_serve_workload_options(
        serve,
        ops_help="length of the seeded stream replayed in a loop",
        out="BENCH_serve_daemon.json",
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
    _add_resilience_options(serve)
    _add_advisor_options(serve, threshold=1.2)

    stats = commands.add_parser(
        "stats", help="render the telemetry embedded in a serve report"
    )
    stats.add_argument(
        "--in",
        dest="input",
        type=Path,
        default=Path("BENCH_serve.json"),
        help="serve report to read (default: BENCH_serve.json)",
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
    from repro.bench import figures as figure_module
    from repro.bench.render import format_series, format_table

    sections: list[tuple[str, callable]] = [
        ("fig04", lambda: format_table(
            ["design", "KiB"], sorted(figure_module.fig04_sizes().items()),
            "Figure 4 — access support relation sizes (KiB)")),
        ("fig05", lambda: format_series(
            "d_i", *figure_module.fig05_varying_d(),
            title="Figure 5 — sizes under varying d_i (KiB)")),
        ("fig06", lambda: format_table(
            ["design", "pages"], sorted(figure_module.fig06_backward_query().items()),
            "Figure 6 — Q_{0,4}(bw) cost")),
        ("fig07", lambda: format_series(
            "size_i", *figure_module.fig07_object_size(),
            title="Figure 7 — Q_{0,4}(bw) vs object size")),
        ("fig08", lambda: format_series(
            "d_i", *figure_module.fig08_partial_query(),
            title="Figure 8 — Q_{0,3}(bw) support")),
        ("fig09", lambda: format_series(
            "fan_i", *figure_module.fig09_fanout(),
            title="Figure 9 — Q_{0,4}(bw) vs fan-out")),
        ("fig11", lambda: format_table(
            ["design", "pages"], sorted(figure_module.fig11_update_costs().items()),
            "Figure 11 — ins_3 update cost")),
        ("fig12", lambda: format_table(
            ["design", "pages"], sorted(figure_module.fig12_update_costs().items()),
            "Figure 12 — ins_3 update cost (fan 2,1,1,4)")),
        ("fig13", lambda: format_series(
            "size_i", *figure_module.fig13_update_sizes(),
            title="Figure 13 — ins_1 update cost vs object size")),
        ("fig14", lambda: format_series(
            "P_up", *figure_module.fig14_opmix(),
            title="Figure 14 — normalized mix cost (binary dec)")),
        ("fig15", lambda: format_series(
            "P_up", *figure_module.fig15_opmix(),
            title="Figure 15 — normalized mix cost (dec (0,3,4))")),
        ("fig16", lambda: format_series(
            "P_up", *figure_module.fig16_left_vs_full(),
            title="Figure 16 — left vs full (n=5)")),
        ("fig17", lambda: format_series(
            "P_up", *figure_module.fig17_right_vs_full(),
            title="Figure 17 — right vs full (n=5)")),
    ]
    wanted = dict(sections)
    if args.only:
        if args.only not in wanted:
            print(f"unknown figure {args.only!r}; known: {sorted(wanted)}", file=out)
            return 2
        sections = [(args.only, wanted[args.only])]
    for index, (_name, render) in enumerate(sections):
        if index:
            print("", file=out)
        print(render(), file=out)
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


def _cmd_bench_chaos(args, out) -> int:
    from repro.bench.chaos import ChaosBenchConfig, run_chaos, write_report
    from repro.resilience import ChaosConfig

    # A soak with no chaos is pointless; default to a real storm.
    chaos = _chaos_config_from(args) or ChaosConfig(rate=0.25, seed=args.seed)
    config = ChaosBenchConfig(
        serve=_serve_config_from(args),
        chaos=chaos,
        healer_interval=args.healer_interval,
        soak_ops=args.soak_ops,
        min_recoveries=args.min_recoveries,
        soak_seconds=args.soak_seconds,
        settle_seconds=args.settle_seconds,
        out=str(args.out),
    )
    report = run_chaos(config)
    write_report(report, str(args.out))
    soak = report["soak"]
    chaos_report = report["chaos"] or {}
    healer = report["healer"] or {}
    mttr = healer.get("mttr_ms", {})
    breakers = report["breakers"]
    latency = report["latency_ms"]
    end = report["end_state"]
    healthz = report["healthz"]
    print(
        f"chaos soak (rate {chaos.rate:g}): "
        f"{soak['ops_served']} ops in {soak['storm_seconds']:.1f}s storm "
        f"({soak['throughput_ops_per_s']:.0f} ops/s)",
        file=out,
    )
    print(
        f"chaos: {chaos_report.get('strikes', 0)} strike(s) "
        f"({chaos_report.get('bursts', 0)} burst(s)), "
        f"{chaos_report.get('faults_injected', 0)} fault(s) and "
        f"{chaos_report.get('crashes_injected', 0)} crash(es) injected, "
        f"{report['chaos_casualties']} client casualt(ies)",
        file=out,
    )
    print(
        f"healer: {healer.get('recoveries', 0)} recover(ies), "
        f"{healer.get('failures', 0)} failed attempt(s), MTTR mean "
        f"{mttr.get('mean_ms', 0.0):.1f}ms max {mttr.get('max_ms', 0.0):.1f}ms",
        file=out,
    )
    print(
        f"breakers: {breakers['total_transitions']} transition(s), "
        f"open at drain: {', '.join(breakers['open']) or 'none'}",
        file=out,
    )
    print(
        f"latency: p50={latency['p50_ms']:.2f}ms p95={latency['p95_ms']:.2f}ms "
        f"p99={latency['p99_ms']:.2f}ms over {latency['count']} sampled op(s); "
        f"hit rate {report['hit_rate'] * 100:.1f}%; "
        f"deadline sheds {report['deadline_shed']}, "
        f"admission rejects {report['admission']['rejected']}",
        file=out,
    )
    end_ok = bool(end["consistent"]) and bool(end["accounting_ok"])
    print(
        f"healthz {healthz['status']}; end state "
        f"{'consistent' if end['consistent'] else 'QUARANTINED: ' + str(end['quarantined'])}; "
        f"accounting {'consistent' if end['accounting_ok'] else 'INCONSISTENT'}",
        file=out,
    )
    print(f"report -> {args.out}", file=out)
    return 0 if end_ok and healthz["status"] == 200 else 1


def _cmd_bench_advisor(args, out) -> int:
    from repro.bench.advisor import AdvisorBenchConfig, run_advisor, write_report

    config = AdvisorBenchConfig(
        serve=_serve_config_from(args),
        advisor_interval=(
            args.advisor_interval if args.advisor_interval > 0 else 0.25
        ),
        advisor_threshold=args.advisor_threshold,
        advisor_min_ops=args.advisor_min_ops,
        phase_seconds=args.phase_seconds,
        out=str(args.out),
    )
    report = run_advisor(config)
    write_report(report, str(args.out))
    advisor = report["advisor"]
    for phase in report["phases"]:
        line = (
            f"phase {phase['name']}: "
            f"{'converged' if phase['converged'] else 'DID NOT CONVERGE'} "
            f"in {phase['seconds']:.1f}s"
        )
        if phase.get("design"):
            design = phase["design"]
            line += f" -> {design['extension']} dec={design['decomposition']}"
        if "decisive_sweeps" in phase:
            line += f" ({phase['decisive_sweeps']} decisive sweep(s))"
        print(line, file=out)
    rollback = report["rollback"]
    print(
        f"rollback: build failure "
        f"{'left the old design serving' if rollback['ok'] else 'LOST THE ASR'} "
        f"(asrs {rollback['asrs_before']} -> {rollback['asrs_after']}, "
        f"epoch {rollback['epoch_before']} -> {rollback['epoch_after']})",
        file=out,
    )
    epochs = report["epoch_proof"]
    print(
        f"epoch proof: retune bumped {epochs['before']} -> {epochs['after']}; "
        f"post-retune plan {'recompiled' if epochs['post_retune_miss'] else 'SERVED STALE'} "
        f"at epoch {epochs['post_retune_epoch']}",
        file=out,
    )
    print(
        f"advisor: {advisor['sweeps']} sweep(s), {advisor['retunes']} "
        f"retune(s), rejected {advisor['rejected']}",
        file=out,
    )
    healthz = report["healthz"]
    end = report["end_state"]
    print(
        f"healthz: {healthz['probes']} probe(s), all 200: {healthz['all_ok']}; "
        f"end state {'consistent' if end['consistent'] else 'QUARANTINED'}; "
        f"accounting {'consistent' if end['accounting_ok'] else 'INCONSISTENT'}",
        file=out,
    )
    print(f"report -> {args.out}", file=out)
    return 0 if report["ok"] else 1


def _cmd_bench(args, out) -> int:
    if args.action == "chaos":
        return _cmd_bench_chaos(args, out)
    if args.action == "advisor":
        return _cmd_bench_advisor(args, out)
    if args.chaos_rate > 0.0:
        print(
            "error: chaos injection applies to 'bench chaos' and 'serve', "
            "not 'bench serve'",
            file=out,
        )
        return 2
    if args.advisor_interval > 0.0:
        print(
            "error: the advisor loop applies to 'bench advisor' and 'serve', "
            "not 'bench serve'",
            file=out,
        )
        return 2
    from repro.bench.serve import run_serve, write_report

    config = _serve_config_from(args)
    report = run_serve(config)
    write_report(report, str(args.out))
    serve = report["serve"]
    print(
        f"served {args.ops} ops ({args.profile}) with "
        f"{serve['clients']} client(s): {serve['throughput_ops_per_s']:.0f} ops/s "
        f"in {serve['wall_seconds']:.2f}s, peak inflight {serve['peak_inflight']}",
        file=out,
    )
    print(
        f"pool: {report['pool']['hit_rate'] * 100:.1f}% hit rate over "
        f"{report['pool']['capacity']} pages; accounting "
        f"{'consistent' if report['accounting']['ok'] else 'INCONSISTENT'}",
        file=out,
    )
    overall = report["drift"]["overall"]
    print(
        f"cost-model drift: geometric-mean observed/predicted ratio "
        f"{overall['geo_mean_ratio']:g} over {overall['count']} op(s) "
        f"({'finite' if overall['finite'] else 'NOT FINITE'})",
        file=out,
    )
    for name, entry in report["operations"].items():
        print(
            f"  {name:<10} n={entry['count']:<4} p50={entry['p50_ms']:.2f}ms "
            f"p95={entry['p95_ms']:.2f}ms p99={entry['p99_ms']:.2f}ms",
            file=out,
        )
    print(f"report -> {args.out}  (render with: repro stats --in {args.out})", file=out)
    return 0 if report["accounting"]["ok"] else 1


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
            "(re-run 'repro bench serve' to produce one)",
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
    "bench": _cmd_bench,
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
