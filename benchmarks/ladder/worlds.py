"""The ladder's two worlds, in process and behind a daemon child.

``chain``: ``SMALL_PROFILE`` scaled (×25 by default: 33.9k objects),
built through ``build_world``, the chain ASR then swapped for
``Extension.FULL`` with type borders (0, 2, 4).  ``payload``: the same
plus the value-extended ``…A.Payload`` ASR of the shipped ``queries``
profile.  Both are functions of the seed alone.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import adapter

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Pool capacities in pages: the scaled world (~1.5k pages) fits the
#: first and is ~12x the second.
POOL_FITS = 4096
POOL_SMALL = 128

#: Seconds the parent waits for a daemon child to come up or drain.
CHILD_TIMEOUT_S = 120.0


def build(kind: str, seed: int, scale: int, capacity: int, io_micros: float = 0.0):
    """Build one world in process; returns ``(world, phase seconds)``."""
    started = time.perf_counter()
    world = adapter.build_world(
        adapter.LadderConfig(
            seed=seed,
            scale=scale,
            capacity=capacity,
            io_micros=io_micros,
            profile="queries" if kind == "payload" else "fig14",
        )
    )
    built = time.perf_counter()
    adapter.swap_chain_asr(world)
    swapped = time.perf_counter()
    return world, {
        "build_world_s": built - started,
        "asr_build_s": swapped - built,
        "setup_s": swapped - started,
    }


def build_repeatedly(
    kind: str, seed: int, scale: int, capacity: int, times: int, io_micros: float = 0.0
):
    """Set the world up ``times`` times; keep the last, report every timing."""
    world, phases = None, []
    for _ in range(times):
        world = None
        gc.collect()  # the previous world must not count against this one
        world, phase = build(kind, seed, scale, capacity, io_micros)
        phases.append(phase)
    return world, phases


class DaemonChild:
    """A ``ServeDaemon`` over the ``payload`` world in a child process."""

    def __init__(self, seed: int, scale: int) -> None:
        RESULTS.mkdir(exist_ok=True)
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "daemon_main.py"),
                "--seed",
                str(seed),
                "--scale",
                str(scale),
                "--report",
                str(RESULTS / f"daemon-drain-{seed}.tmp.json"),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._read_event("ready")
        except BaseException:
            self.kill()
            raise
        #: Spawn to bound endpoint: interpreter start, generate, ASR
        #: builds and daemon start — what a restart costs an operator.
        self.setup_s = time.perf_counter() - started
        self.address = (self.ready["host"], self.ready["port"])

    def _read_event(self, event: str) -> dict:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                f"daemon child ended (code {self.process.poll()}) before its {event!r} line"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"daemon child sent {message!r}, expected {event!r}")
        return message

    def stop(self) -> dict:
        """Drain the daemon; returns its ``final`` line (invariants, RSS)."""
        try:
            self.process.stdin.close()
            final = self._read_event("final")
            self.process.wait(timeout=CHILD_TIMEOUT_S)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()
