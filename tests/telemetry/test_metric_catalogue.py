"""The documented catalogue equals what ``src/`` emits and serves.

ROADMAP aim 4: ``docs/observability.md``'s tables are mechanically
checked against the literal metric names the code passes to the
registry — directly, or through the thin per-module wrappers below —
and against the daemon's one route table.  Labels (beyond
``http.requests{endpoint}``) and flags are not covered yet.
"""

import re
from pathlib import Path

from repro.server import _ROUTES

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Registry entry points whose first argument is a metric name (the
#: ``bind_*`` pair hands out a handle that publishes under that name).
ENTRY_POINTS = ("inc", "observe", "set_gauge", "gauge_fn", "bind_counter", "bind_histogram")
#: Module-private wrappers that forward their first argument to one of
#: them.  (``ASRManager._count`` is not one: its argument is an ``op``
#: label of the ``ops`` family.)
WRAPPERS = {
    "asr/manager.py": "_metric_inc",
    "query/cache.py": "_count",
    "asr/adaptive.py": "_inc",
}


def emitted_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        module = path.relative_to(SRC).as_posix()
        if module == "telemetry/registry.py":
            continue  # the registry's own docstring examples
        methods = ENTRY_POINTS + tuple(
            wrapper for suffix, wrapper in WRAPPERS.items() if module == suffix
        )
        call = re.compile(r"\.(?:%s)\(\s*\"([^\"]+)\"" % "|".join(methods))
        names.update(call.findall(path.read_text()))
    return names


def documented_names() -> set[str]:
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def test_every_emitted_metric_is_documented_and_vice_versa():
    emitted, documented = emitted_names(), documented_names()
    assert len(emitted) > 60, "the scan lost the emitters"
    undocumented = sorted(emitted - documented)
    assert not undocumented, f"emitted but not in docs/observability.md: {undocumented}"
    stale = sorted(documented - emitted)
    assert not stale, f"documented but emitted nowhere under src/: {stale}"


def test_documented_endpoints_are_exactly_the_route_table():
    text = (ROOT / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"^\| `((?:GET|POST) /[^`]*)` \|", text, re.MULTILINE))
    assert documented == {route.documented for route in _ROUTES}
    # The `endpoint` label values of `http.requests` are the same table.
    row = next(
        line for line in text.splitlines() if line.startswith("| `http.requests`")
    )
    labels = set(re.findall(r"`(/[^`]*|other)`", row.split("|")[3]))
    assert labels == {route.label for route in _ROUTES} | {"other"}
