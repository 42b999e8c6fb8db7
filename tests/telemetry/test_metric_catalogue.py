"""The documented catalogue equals what ``src/`` emits and serves.

ROADMAP aim 4: ``docs/observability.md``'s tables are mechanically
checked against the literal metric names the code passes to the
registry — directly, through the thin per-module wrappers below, or as
the ``MetricsRegistry.series`` a context's tally publishes under — and
against the daemon's one route table.  Labels are checked for the four
series a query publishes to its context (:data:`TALLIED`) and for
``http.latency_ms{endpoint}``; other labels and flags are not covered yet.
"""

import ast
import re
from pathlib import Path

from repro.server import _ROUTES

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Registry entry points whose first argument is a metric name
#: (``series`` builds the key a context's tally, or a counter source,
#: publishes under).
ENTRY_POINTS = ("inc", "observe", "set_gauge", "gauge_fn", "series")
#: The series a served query publishes to its context's tally (or, for
#: ``drift.observations``, that the drift monitor's entries hold).
TALLIED = ("ops", "span.pages", "asr.lookups", "drift.observations")
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
    names: set[str] = set()
    for line in catalogue_rows():
        first_cell = line.split("|")[1]
        names.update(re.findall(r"`([^`]+)`", first_cell))
    return names


def catalogue_rows() -> list[str]:
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("| `")]


def emitted_labels() -> dict[str, set[frozenset]]:
    """Each :data:`TALLIED` name -> the label sets of the calls naming it.

    Every ``<entry point>("name", ..., label=...)`` call under ``src/``
    whose first argument is one of the names contributes its keyword
    names (``exemplar`` is not a label).
    """
    found: dict[str, set[frozenset]] = {name: set() for name in TALLIED}
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).as_posix() == "telemetry/registry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ENTRY_POINTS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in TALLIED
            ):
                continue
            assert all(kw.arg is not None for kw in node.keywords), (
                f"{path}:{node.lineno}: labels of a tallied series must be literal"
            )
            found[node.args[0].value].add(
                frozenset(kw.arg for kw in node.keywords if kw.arg != "exemplar")
            )
    return found


def documented_labels(name: str) -> frozenset:
    """The labels cell of ``name``'s catalogue row."""
    (row,) = [line for line in catalogue_rows() if line.startswith(f"| `{name}` |")]
    return frozenset(re.findall(r"`([^`]+)`", row.split("|")[2]))


def test_every_emitted_metric_is_documented_and_vice_versa():
    emitted, documented = emitted_names(), documented_names()
    assert len(emitted) > 59, "the scan lost the emitters"
    undocumented = sorted(emitted - documented)
    assert not undocumented, f"emitted but not in docs/observability.md: {undocumented}"
    stale = sorted(documented - emitted)
    assert not stale, f"documented but emitted nowhere under src/: {stale}"


def test_documented_endpoints_are_exactly_the_route_table():
    text = (ROOT / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"^\| `((?:GET|POST) /[^`]*)` \|", text, re.MULTILINE))
    assert documented == {route.documented for route in _ROUTES}
    # The `endpoint` label values of `http.latency_ms` are the same table.
    row = next(
        line for line in text.splitlines() if line.startswith("| `http.latency_ms`")
    )
    labels = set(re.findall(r"`(/[^`]*|other)`", row.split("|")[3]))
    assert labels == {route.label for route in _ROUTES} | {"other"}


def test_tallied_series_publish_exactly_their_documented_labels():
    emitted = emitted_labels()
    for name in TALLIED:
        assert emitted[name], f"no call under src/ publishes {name}"
        assert emitted[name] == {documented_labels(name)}, (name, emitted[name])
    # The tally-model table above the catalogue names the same labels.
    text = (ROOT / "docs" / "observability.md").read_text()
    table = dict(re.findall(r"^\| `([\w.]+)\{([^}]*)\}` \|", text, re.MULTILINE))
    for name in TALLIED:
        assert frozenset(table[name].split(", ")) == documented_labels(name), name
