"""Query-text normalization and the epoch-keyed compiled-plan LRU."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.cache import CompiledPlanCache, normalize_query
from repro.query.executor import CompiledSelect
from repro.query.parser import parse_select
from repro.telemetry import MetricsRegistry
from tests.telemetry.test_registry import gauge


def compiled(text: str) -> CompiledSelect:
    statement = parse_select(text)
    return CompiledSelect(statement, (), statement.predicates)


PLAN_A = 'select d from d in Mercedes where d.Name = "Auto"'
PLAN_B = 'select d from d in Mercedes where d.Name = "Truck"'
PLAN_C = "select p from p in extent(Product)"


class TestNormalizeQuery:
    def test_collapses_runs_and_strips_ends(self):
        assert (
            normalize_query("  select   x\n\tfrom x in  extent(T) ")
            == "select x from x in extent(T)"
        )

    def test_string_literals_are_preserved_verbatim(self):
        text = 'select d from d in M where d.Name = "two   spaces\tand tab"'
        assert normalize_query(text) == text

    def test_escaped_quote_does_not_end_the_literal(self):
        text = 'select d from d in M where d.Name = "a \\"b\\"   c"'
        assert normalize_query(text) == text

    def test_whitespace_after_string_still_collapses(self):
        assert (
            normalize_query('select d from d in M where d.Name = "x"   and d.Y = 1')
            == 'select d from d in M where d.Name = "x" and d.Y = 1'
        )

    def test_equivalent_variants_share_a_key(self):
        assert normalize_query("select  x  from x in T") == normalize_query(
            "select x\nfrom x in T"
        )


class TestCompiledPlanCache:
    def test_miss_then_hit(self):
        cache = CompiledPlanCache(capacity=4)
        assert cache.get(PLAN_A, 1) is None
        plan = compiled(PLAN_A)
        cache.put(PLAN_A, 1, plan)
        assert cache.get(PLAN_A, 1) is plan

    def test_epoch_is_part_of_the_key(self):
        cache = CompiledPlanCache(capacity=4)
        cache.put(PLAN_A, 1, compiled(PLAN_A))
        assert cache.get(PLAN_A, 2) is None  # epoch bumped → not found

    def test_lru_eviction_prefers_stale_entries(self):
        cache = CompiledPlanCache(capacity=2)
        cache.put(PLAN_A, 1, compiled(PLAN_A))
        cache.put(PLAN_B, 1, compiled(PLAN_B))
        assert cache.get(PLAN_A, 1) is not None  # A now most recent
        cache.put(PLAN_C, 1, compiled(PLAN_C))  # evicts B, the LRU tail
        assert cache.get(PLAN_B, 1) is None
        assert cache.get(PLAN_A, 1) is not None
        assert cache.get(PLAN_C, 1) is not None

    def test_zero_capacity_disables_caching(self):
        cache = CompiledPlanCache(capacity=0)
        cache.put(PLAN_A, 1, compiled(PLAN_A))
        assert cache.get(PLAN_A, 1) is None
        assert len(cache) == 0

    def test_metrics_published(self):
        registry = MetricsRegistry()
        cache = CompiledPlanCache(capacity=1, registry=registry)
        cache.get(PLAN_A, 1)  # miss
        cache.put(PLAN_A, 1, compiled(PLAN_A))
        cache.get(PLAN_A, 1)  # hit
        cache.put(PLAN_B, 1, compiled(PLAN_B))  # evicts A
        assert registry.counter_value("query.cache.misses") == 1
        assert registry.counter_value("query.cache.hits") == 1
        assert registry.counter_value("query.cache.evictions") == 1
        assert gauge(registry, "query.cache.size") == 1.0

    def test_describe_snapshot(self):
        cache = CompiledPlanCache(capacity=8)
        cache.put(PLAN_A, 1, compiled(PLAN_A))
        cache.put(PLAN_B, 3, compiled(PLAN_B))
        assert cache.describe() == {"capacity": 8, "entries": 2, "epochs": [1, 3]}


def reference_normalize(text: str) -> str:
    """The character-at-a-time loop ``normalize_query`` replaced."""
    out: list[str] = []
    in_string = False
    escaped = False
    pending_space = False
    for ch in text:
        if in_string:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch.isspace():
            pending_space = True
            continue
        if pending_space:
            if out:
                out.append(" ")
            pending_space = False
        out.append(ch)
        if ch == '"':
            in_string = True
    return "".join(out)


#: Quotes, backslashes, ASCII and Unicode whitespace, and query text.
QUERY_CHARACTERS = st.sampled_from(
    list('"\\ \t\n\r\x0b\x0c\x1c\x85\xa0 　') + list("ax.=(5)") + ["select "]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(QUERY_CHARACTERS, max_size=40).map("".join))
def test_normalize_matches_the_character_loop(text):
    assert normalize_query(text) == reference_normalize(text)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_normalize_matches_the_character_loop_on_any_text(text):
    assert normalize_query(text) == reference_normalize(text)
