"""Simulated device model: page accesses priced as device latency.

The paper's cost measure is *page accesses* — its evaluation never
touches wall clock.  The serving layers on top of the reproduction need
a wall-clock dimension, and the natural seam is exactly the one the
cost model defines: every charged page costs one simulated device
round-trip.  Until this module existed the serve driver priced that
inline (``time.sleep(pages * io_seconds)`` buried in the drive loop),
which hard-wired two decisions at once: the latency *distribution*
(fixed per page) and the waiting *mechanism* (a blocked worker thread).

:class:`DeviceModel` makes both pluggable:

* **distribution** — a :class:`LatencyModel` maps a page count to
  simulated seconds.  :class:`FixedLatency` is the historical behaviour
  (``pages * io_micros``); :class:`LognormalLatency` draws per-operation
  multiplicative jitter from a seeded lognormal (the long right tail of
  real devices); the :data:`DEVICE_CLASSES` presets (``nvme`` / ``ssd``
  / ``disk``) bundle a realistic median and spread per device class.
* **mechanism** — :meth:`DeviceModel.acharge` awaits ``asyncio.sleep``
  so thousands of in-flight operations can wait on one event loop
  without burning a thread each (the serving core), while
  :meth:`DeviceModel.charge` blocks the calling thread (a ``POST
  /query`` on its HTTP handler thread).

Both entry points price the *same* seconds for the same pages.  Charges
are published into an
optional :class:`~repro.telemetry.registry.MetricsRegistry` as the
``device.charge_ms`` histogram and ``device.pages`` counter.

``--io-dist`` specs accepted by :func:`parse_io_dist`:

``fixed``
    :class:`FixedLatency` at ``io_micros`` per page (the default).
``lognormal`` or ``lognormal:SIGMA``
    :class:`LognormalLatency` with median ``io_micros`` per page and
    shape ``SIGMA`` (default 0.5).
``nvme`` / ``ssd`` / ``disk``
    A :data:`DEVICE_CLASSES` preset — lognormal with the class's median
    microseconds and spread; ``--io-micros`` is ignored.
"""

from __future__ import annotations

import asyncio
import math
import random
import threading
import time
from dataclasses import dataclass

from repro.telemetry.tracing import maybe_span

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "LognormalLatency",
    "DEVICE_CLASSES",
    "DeviceModel",
    "parse_io_dist",
]


class LatencyModel:
    """Maps charged page counts to simulated device seconds."""

    def seconds(self, pages: int) -> float:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-able description (embedded in benchmark reports)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Every charged page costs exactly ``io_micros`` microseconds."""

    io_micros: float = 150.0

    def seconds(self, pages: int) -> float:
        return pages * self.io_micros / 1e6

    def describe(self) -> dict:
        return {"dist": "fixed", "io_micros": self.io_micros}


class LognormalLatency(LatencyModel):
    """Per-operation multiplicative jitter around a median page latency.

    One lognormal factor is drawn per :meth:`seconds` call (per
    *operation*, not per page — a single device request covers the
    operation's pages back to back), with median 1 so the median
    per-page latency stays ``io_micros``.  The RNG is seeded and
    lock-protected: identical seeds replay identical latency sequences
    for identical call sequences, from any number of threads.
    """

    def __init__(
        self, io_micros: float = 150.0, sigma: float = 0.5, seed: int = 0
    ) -> None:
        if io_micros < 0:
            raise ValueError(f"io_micros must be >= 0, got {io_micros}")
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        self.io_micros = io_micros
        self.sigma = sigma
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def seconds(self, pages: int) -> float:
        if not pages or not self.io_micros:
            return 0.0
        with self._lock:
            factor = self._rng.lognormvariate(0.0, self.sigma)
        return pages * self.io_micros / 1e6 * factor

    def describe(self) -> dict:
        return {
            "dist": "lognormal",
            "io_micros": self.io_micros,
            "sigma": self.sigma,
            "seed": self.seed,
        }


#: Device-class presets: class name -> (median io_micros per page, sigma).
#: Rough 2020s-hardware shapes — an NVMe read is tens of microseconds and
#: tight, a spinning disk is milliseconds with a long seek tail.
DEVICE_CLASSES = {
    "nvme": (20.0, 0.25),
    "ssd": (150.0, 0.35),
    "disk": (4000.0, 0.6),
}


def parse_io_dist(spec: str, io_micros: float, seed: int = 0) -> LatencyModel:
    """Build the :class:`LatencyModel` an ``--io-dist`` spec describes.

    Raises :class:`ValueError` on an unknown spec (see the module
    docstring for the accepted forms).
    """
    spec = spec.strip().lower()
    if spec == "fixed":
        return FixedLatency(io_micros)
    if spec in DEVICE_CLASSES:
        median, sigma = DEVICE_CLASSES[spec]
        return LognormalLatency(median, sigma, seed)
    if spec == "lognormal" or spec.startswith("lognormal:"):
        sigma = 0.5
        if ":" in spec:
            _, _, tail = spec.partition(":")
            try:
                sigma = float(tail)
            except ValueError:
                raise ValueError(
                    f"bad lognormal sigma {tail!r} in io-dist spec {spec!r}"
                ) from None
        return LognormalLatency(io_micros, sigma, seed)
    raise ValueError(
        f"unknown io-dist {spec!r}; known: fixed, lognormal[:SIGMA], "
        + ", ".join(sorted(DEVICE_CLASSES))
    )


class DeviceModel:
    """The simulated device the serving layers wait on.

    ``charge(pages)`` blocks the calling thread for the latency model's
    seconds — ``POST /query``, where each HTTP handler thread *is* an
    in-flight request.  ``acharge(pages)`` awaits the same seconds on
    the running event loop — the serving core, where an awaiting
    coroutine costs no thread.  Both return the simulated seconds (0.0
    for zero pages) and publish ``device.charge_ms`` / ``device.pages``
    into ``registry`` when one is attached.
    """

    def __init__(
        self, latency: LatencyModel | None = None, registry=None
    ) -> None:
        self.latency = latency if latency is not None else FixedLatency()
        self.registry = registry

    def seconds(self, pages: int) -> float:
        """The simulated latency of ``pages`` charged accesses."""
        if pages <= 0:
            return 0.0
        seconds = self.latency.seconds(pages)
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(
                f"latency model produced {seconds!r} for {pages} page(s)"
            )
        return seconds

    def _observe(self, pages: int, seconds: float) -> None:
        if self.registry is not None and pages > 0:
            self.registry.observe("device.charge_ms", seconds * 1e3)
            self.registry.inc("device.pages", pages)

    def charge(self, pages: int, trace=None) -> float:
        """Sleep the simulated latency on the calling thread.

        ``trace`` (a :class:`~repro.telemetry.tracing.Trace`) gets the
        whole *measured* charge as its ``device`` phase: the pricing,
        the sleep (sleeps overshoot, and phase sums must account for
        real elapsed time), the wake-up, and the published metrics.
        """
        with maybe_span(trace, "device.charge", "device"):
            seconds = self.seconds(pages)
            if seconds:
                time.sleep(seconds)
            self._observe(pages, seconds)
        return seconds

    async def acharge(self, pages: int, trace=None) -> float:
        """Await the simulated latency on the running event loop."""
        with maybe_span(trace, "device.charge", "device"):
            seconds = self.seconds(pages)
            if seconds:
                await asyncio.sleep(seconds)
            self._observe(pages, seconds)
        return seconds
