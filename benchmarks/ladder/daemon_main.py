"""Child process of the ``select-http`` workload: one ``ServeDaemon``.

Protocol with the parent (``worlds.DaemonChild``), one JSON object per
line on stdout: a ``ready`` line once the endpoint is bound and the
chain ASR swapped, then — after the parent closes this process's stdin —
a ``final`` line with the drained world's invariants.  Closing stdin is
the stop signal so that a parent that dies takes the daemon with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import adapter
from measure import peak_rss_mb
from worlds import POOL_FITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--report", required=True, help="where the daemon drains its report")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    config = adapter.ServerConfig(
        serve=adapter.LadderConfig(
            seed=args.seed,
            scale=args.scale,
            clients=0,  # no replay: every request comes over the socket
            profile="queries",
            capacity=POOL_FITS,
            io_micros=0.0,
        ),
        port=0,
        healer=False,
        out=args.report,
    )
    daemon = adapter.ServeDaemon(config).start()
    built = time.perf_counter()
    adapter.swap_chain_asr(daemon.world)
    swapped = time.perf_counter()
    host, port = daemon.address
    world = daemon.world
    print(
        json.dumps(
            {
                "event": "ready",
                "host": host,
                "port": port,
                "build_world_s": built - started,
                "asr_build_s": swapped - built,
                "tuples": adapter.tuple_count(world),
                "stored_pages": adapter.stored_pages(world),
            }
        ),
        flush=True,
    )
    sys.stdin.read()

    failures: list[str] = []
    try:
        world.pool.pool.check_invariants()
    except AssertionError as error:
        failures.append(f"pool invariants: {error}")
    tuples, pages = adapter.tuple_count(world), adapter.stored_pages(world)
    pool = adapter.pool_counters(world)
    try:
        report = daemon.shutdown()  # flushes, check_consistency(), accounting
    except AssertionError as error:
        failures.append(f"consistency: {error}")
        report = {"accounting": {"ok": False}, "drained": {"errors": []}}
    finally:
        if os.path.exists(args.report):
            os.unlink(args.report)
    if not report["accounting"]["ok"]:
        failures.append(f"accounting: {report['accounting']}")
    failures.extend(report["drained"]["errors"])
    print(
        json.dumps(
            {
                "event": "final",
                "tuples": tuples,
                "stored_pages": pages,
                "pool": pool,
                "peak_rss_mb": peak_rss_mb(),
                "failures": failures,
            }
        ),
        flush=True,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
