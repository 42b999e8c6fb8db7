"""The SQL-like surface grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query.parser import (
    DottedPath,
    Literal,
    Predicate,
    RangeDecl,
    SelectStatement,
    parse_select,
)


class TestHappyPath:
    def test_query1_shape(self):
        statement = parse_select(
            'select r.Name from r in OurRobots '
            'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
        )
        assert statement.targets == (DottedPath("r", ("Name",)),)
        assert statement.ranges[0].variable == "r"
        assert statement.ranges[0].source == DottedPath("OurRobots")
        (predicate,) = statement.predicates
        assert predicate.op == "="
        assert predicate.right == Literal("Utopia")

    def test_query2_dependent_range(self):
        statement = parse_select(
            'select d.Name from d in Mercedes, b in d.Manufactures.Composition '
            'where b.Name = "Door"'
        )
        assert len(statement.ranges) == 2
        assert statement.ranges[1].source == DottedPath(
            "d", ("Manufactures", "Composition")
        )

    def test_extent_source(self):
        statement = parse_select("select p from p in extent(Product)")
        assert statement.ranges[0].is_extent
        assert statement.ranges[0].source.variable == "Product"

    def test_in_predicate(self):
        statement = parse_select(
            'select d from d in Mercedes where "Door" in d.Manufactures.Composition.Name'
        )
        (predicate,) = statement.predicates
        assert predicate.op == "in"
        assert predicate.left == Literal("Door")

    def test_and_conjunction(self):
        statement = parse_select(
            'select d from d in Mercedes where d.Name = "Auto" and d.Name = "Auto"'
        )
        assert len(statement.predicates) == 2

    def test_numeric_literals(self):
        statement = parse_select(
            "select p from p in extent(BasePart) where p.Price = 1205.50"
        )
        assert statement.predicates[0].right == Literal(1205.50)
        statement = parse_select(
            "select p from p in extent(BasePart) where p.Price = 12"
        )
        assert statement.predicates[0].right == Literal(12)

    def test_multiple_targets(self):
        statement = parse_select("select a.X, a.Y from a in extent(T)")
        assert len(statement.targets) == 2

    def test_keywords_case_insensitive(self):
        statement = parse_select("SELECT a FROM a IN extent(T) WHERE a.X = 1")
        assert statement.predicates[0].op == "="

    def test_round_trip_str(self):
        text = 'select d.Name from d in Mercedes where d.Name = "Auto"'
        assert str(parse_select(text)).replace("\n", " ") == text


class TestStringEscapes:
    def test_escaped_quote_in_literal(self):
        statement = parse_select(
            'select d from d in Mercedes where d.Name = "say \\"hi\\""'
        )
        assert statement.predicates[0].right == Literal('say "hi"')

    def test_escaped_backslash_in_literal(self):
        statement = parse_select(
            'select d from d in Mercedes where d.Name = "C:\\\\tmp"'
        )
        assert statement.predicates[0].right == Literal("C:\\tmp")

    def test_escaped_literal_round_trips(self):
        literal = Literal('a "quoted" \\ backslash')
        statement = parse_select(
            f"select d from d in Mercedes where d.Name = {literal}"
        )
        assert statement.predicates[0].right == literal

    def test_unterminated_string_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unterminated string literal at 40"):
            parse_select('select d from d in Mercedes where d.X = "oops')

    def test_trailing_escape_is_unterminated_not_a_crash(self):
        # The closing quote is escaped away, so the literal never ends.
        with pytest.raises(ParseError, match="unterminated string literal"):
            parse_select('select d from d in Mercedes where d.X = "oops\\"')


_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,8}", fullmatch=True).filter(
    lambda s: s.lower()
    not in {"select", "from", "where", "and", "in", "extent"}
)
_literals = st.one_of(
    st.integers(-10**6, 10**6).map(Literal),
    # Decimal-representable floats only: str() must re-parse exactly.
    st.integers(-10**6, 10**6).map(lambda i: Literal(i / 100)),
    st.text(max_size=12).map(Literal),
)


@st.composite
def _statements(draw):
    variables = draw(
        st.lists(_identifiers, min_size=1, max_size=3, unique_by=str.lower)
    )
    ranges = []
    for index, variable in enumerate(variables):
        if index > 0 and draw(st.booleans()):
            source = DottedPath(
                variables[draw(st.integers(0, index - 1))],
                tuple(draw(st.lists(_identifiers, min_size=1, max_size=2))),
            )
            ranges.append(RangeDecl(variable, source))
        elif draw(st.booleans()):
            ranges.append(RangeDecl(variable, DottedPath(draw(_identifiers)), True))
        else:
            ranges.append(RangeDecl(variable, DottedPath(draw(_identifiers))))
    paths = st.builds(
        DottedPath,
        st.sampled_from(variables),
        st.lists(_identifiers, max_size=3).map(tuple),
    )
    targets = draw(st.lists(paths, min_size=1, max_size=3))
    operands = st.one_of(paths, _literals)
    predicates = draw(
        st.lists(
            st.builds(
                Predicate,
                operands,
                st.sampled_from(["=", "in", "<", "<=", ">", ">="]),
                operands,
            ),
            max_size=3,
        )
    )
    return SelectStatement(tuple(targets), tuple(ranges), tuple(predicates))


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(_statements())
    def test_str_parse_fixed_point(self, statement):
        """``str`` output is valid input, and re-parsing is the identity.

        Exercises the whole grammar surface, including string literals
        containing quotes and backslashes (the escape round trip).
        """
        printed = str(statement)
        reparsed = parse_select(printed)
        assert reparsed == statement
        assert str(reparsed) == printed


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "select",
            "select from x in Y",
            "select a where a.X = 1",
            "select a from a",
            "select a from a in",
            "select a from a in extent(",
            'select a from a in B where a.X ~ 1',
            "select a from a in B extra",
            "select a from a in B where a.X =",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_select(bad)

    def test_unbound_target(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_select("select z from a in B")

    def test_unbound_predicate_variable(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_select("select a from a in B where z.X = 1")

    def test_unbound_dependent_range(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_select("select a from a in z.Items")

    def test_duplicate_range_variable(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_select("select a from a in B, a in C")

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_select("select a from a in B where a.X = #")

    def test_an_integer_past_the_conversion_limit_is_a_parse_error(self):
        # int() refuses more than sys.get_int_max_str_digits() digits with
        # a bare ValueError, which the front door would answer with a 500.
        digits = "9" * 5000
        with pytest.raises(ParseError, match="integer literal of 5000 digits"):
            parse_select(f"select a from a in B where a.X = {digits}")
        with pytest.raises(ParseError, match="integer literal of 5000 digits"):
            parse_select(f"select a from a in B where a.X = -{digits}")
        statement = parse_select(f"select a from a in B where a.X = {digits}.5")
        assert statement.predicates[0].right == Literal(float(f"{digits}.5"))
