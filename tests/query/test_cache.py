"""Query-text normalization, query shapes and the epoch-keyed plan LRU."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query.cache import CompiledPlanCache, normalize_query, query_shape
from repro.query.executor import CompiledSelect
from repro.query.parser import literal_value, parse_select
from repro.telemetry import MetricsRegistry
from tests.query.test_parser import _statements
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


HEAD = "select x from x in extent(T0) where "


def shape(text: str):
    return query_shape(text)[0]


class TestQueryShape:
    def test_literals_of_one_kind_share_a_shape(self):
        assert shape(HEAD + "x.A = 5") == shape(HEAD + "x.A = -70")
        assert shape(HEAD + 'x.A = "a"') == shape(HEAD + 'x.A = "b \\"c\\""')
        assert shape(HEAD + "x.A = 1.5") == shape(HEAD + "x.A = -0.25")

    def test_kinds_are_shapes_of_their_own(self):
        shapes = {shape(HEAD + f"x.A = {literal}") for literal in ("5", "5.0", '"5"')}
        assert len(shapes) == 3

    def test_tokens_are_returned_as_written_in_token_order(self):
        text = HEAD + 'x.A = "a \\"5\\" b" and x.B >= -3.5 and 7 = x.C'
        assert query_shape(text)[1] == ['"a \\"5\\" b"', "-3.5", "7"]

    @pytest.mark.parametrize(
        "text, kept, tokens",
        [
            ("select T0 from T0 in extent(T0)", "T0", []),
            (HEAD + "x5.A = x5.B", "x5", []),
            (HEAD + "5and-3 = x.B", "and-3", ["5"]),
            (HEAD + "x.A = 1.5.3", ".3", ["1.5"]),
            (HEAD + "x.A = --5", "--5", []),
            (HEAD + "x.A = x٣5", "x٣5", []),
        ],
        ids=["T0", "x5", "5and-3", "1.5.3", "--5", "non-ascii-digit"],
    )
    def test_a_literal_touching_a_token_stays_in_the_shape(self, text, kept, tokens):
        key, abstracted = query_shape(text)
        assert abstracted == tokens
        assert kept in "".join(part for part in key if isinstance(part, str))

    def test_a_string_is_abstracted_whatever_precedes_it(self):
        # ``in"a 5"`` is two tokens; the 5 inside the string is no literal.
        assert query_shape(HEAD + 'x.A in"a 5"')[1] == ['"a 5"']

    def test_an_overlong_integer_is_a_parse_error_when_read(self):
        digits = "9" * 5000
        key, tokens = query_shape(HEAD + f"x.A = {digits}")
        assert key == shape(HEAD + "x.A = 5") and tokens == [digits]
        with pytest.raises(ParseError, match="5000 digits"):
            literal_value(digits)


# ----------------------------------------------------------------------
# the shape key is sound: a text served from a template of its shape is
# what a cold parse of it gives, errors included
# ----------------------------------------------------------------------


def _escaped(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


#: A replacement token of each kind; the 5000-digit integers do not convert.
_TOKENS = {
    int: st.one_of(
        st.integers(-(10**9), 10**9).map(str),
        st.sampled_from(["0", "-0", "007", "9" * 5000, "-" + "9" * 5000]),
    ),
    float: st.builds(
        "{}.{}".format,
        st.integers(-(10**6), 10**6),
        st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    ),
    str: st.one_of(
        st.text(max_size=8).map(_escaped),
        st.sampled_from(['"5"', '"a \\"5\\" b"', '""', '"\\\\"']),
    ),
}

#: Literal spellings that touch another token, or that the parser
#: refuses.
_SPELLINGS = [
    "5",
    "-5.25",
    "x5",
    "x.A5",
    "T0",
    "1.5.3",
    "--5",
    "5-3",
    "-1.5.5",
    '"a \\"5\\" b"',
    "9" * 5000,
    "-" + "9" * 5000,
]

#: Whole predicates whose literals touch a name or hide in a string.
_PREDICATES = [
    "x.A = 5and-3 = x.B",
    "x.A = 5and-1.5 = x.B",
    "x.A = 7and٣5 = x.B",
    'x.A in"a 5"',
    'x.A="5"and 6=x.B',
    '"x" = x.B',
]


@st.composite
def _adversarial_texts(draw):
    predicate = st.one_of(
        st.sampled_from(_PREDICATES),
        st.builds(
            "x.A {} {}".format,
            st.sampled_from(["=", ">=", "<", "in"]),
            st.sampled_from(_SPELLINGS),
        ),
    )
    predicates = draw(st.lists(predicate, min_size=1, max_size=3))
    return HEAD + draw(st.sampled_from([" and ", "and "])).join(predicates)


_TEXTS = st.one_of(
    _statements().map(str),
    _adversarial_texts(),
    st.lists(
        st.sampled_from(_SPELLINGS + _PREDICATES + ["select", "x", "from", "where"]),
        max_size=8,
    ).map(" ".join),
)


def _cold(text: str):
    """What ``parse_select`` gives: the statement and its literal types, or the error."""
    try:
        return _typed(parse_select(text))
    except ParseError as error:
        return "parse", str(error)


def _served(template_text: str, text: str):
    """What the front door serves for ``text`` after ``template_text``.

    ``template_text`` parsed; its statement is the shape's template
    unless the shape kept one of its literals, which is never cached.
    """
    statement = parse_select(template_text)
    tokens = query_shape(text)[1]
    if len(tokens) != len(statement.literals()):
        return _cold(text)
    template = CompiledSelect(statement, (), statement.predicates)
    try:
        values = [literal_value(token) for token in tokens]
        return _typed(template.bind(values).statement)
    except ParseError as error:
        return "parse", str(error)


def _typed(statement):
    return statement, [type(literal.value) for literal in statement.literals()]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_text_served_from_its_shape_is_its_cold_parse(data):
    representative = normalize_query(data.draw(_TEXTS))
    key, tokens = query_shape(representative)
    replacements = [
        data.draw(_TOKENS[key[3 * index + 1]]) for index in range(len(tokens))
    ]
    pieces = key[0::3]
    variant = pieces[0] + "".join(
        token + piece for token, piece in zip(replacements, pieces[1:])
    )
    assert normalize_query(variant) == variant
    assert query_shape(variant) == (key, replacements)
    # Either text may be the one that compiled the shape's template.
    for first, second in ((representative, variant), (variant, representative)):
        try:
            parse_select(first)
        except ParseError:
            continue  # nothing is cached for a text that does not parse
        assert _served(first, second) == _cold(second), (first, second)
