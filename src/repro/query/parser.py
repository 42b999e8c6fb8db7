"""A small SQL-like surface syntax for the paper's example queries.

Supports exactly the shapes used in section 2 of the paper::

    select r.Name
    from r in OurRobots
    where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"

    select d.Name
    from d in Mercedes, b in d.Manufactures.Composition
    where b.Name = "Door"

    select d.Manufactures.Composition.Name
    from d in Mercedes
    where d.Name = "Auto"

Grammar (case-insensitive keywords)::

    statement  := "select" targets "from" ranges ["where" predicates]
    targets    := target ("," target)*
    target     := IDENT ("." IDENT)*
    ranges     := range ("," range)*
    range      := IDENT "in" source
    source     := IDENT ("." IDENT)*          -- db variable, or var.path
                | "extent" "(" IDENT ")"      -- a type extent
    predicates := predicate ("and" predicate)*
    predicate  := operand op operand
    op         := "=" | "in" | "<" | "<=" | ">" | ">="

Operands are dotted identifiers (range variable, optionally followed by
an attribute path) or literals (double-quoted strings with ``\"`` and
``\\`` escapes, integers, decimals).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from repro.errors import ParseError

#: The two literal tokens, shared with the plan cache's shape key
#: (:func:`repro.query.cache.query_shape`) so both read literals alike.
STRING_PATTERN = r'"(?:[^"\\]|\\.)*"'
NUMBER_PATTERN = r"-?\d+(?:\.\d+)?"

_TOKEN_RE = re.compile(
    rf"""
    (?P<string>{STRING_PATTERN})
  | (?P<number>{NUMBER_PATTERN})
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct><=|>=|[(),.=<>])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_string(body: str) -> str:
    return _ESCAPE_RE.sub(r"\1", body)


def literal_value(token: str) -> Union[str, int, float]:
    """The value of one string or number token, as the parser reads it.

    Raises :class:`ParseError` for an integer longer than the
    interpreter converts (``sys.get_int_max_str_digits()``), never the
    bare ``ValueError``.
    """
    if token[0] == '"':
        return _unescape_string(token[1:-1])
    if "." in token:
        return float(token)
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"integer literal of {len(token.lstrip('-'))} digits is too long"
        ) from None


def _escape_string(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True)
class DottedPath:
    """A range variable followed by zero or more attribute hops."""

    variable: str
    attributes: tuple[str, ...] = ()

    def __str__(self) -> str:
        return ".".join((self.variable,) + self.attributes)


@dataclass(frozen=True)
class Literal:
    value: Union[str, int, float]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{_escape_string(self.value)}"'
        return str(self.value)


Operand = Union[DottedPath, Literal]


@dataclass(frozen=True)
class RangeDecl:
    """``variable in source`` — a binding of the from clause.

    ``source`` is a :class:`DottedPath` over either a database variable
    (``Mercedes``) or an earlier range variable (``d.Manufactures…``), or
    the pseudo-call ``extent(TypeName)`` encoded with
    ``variable == "extent"``.
    """

    variable: str
    source: DottedPath
    is_extent: bool = False


@dataclass(frozen=True)
class Predicate:
    """``left op right`` with ``op`` ∈ {=, in, <, <=, >, >=}."""

    left: Operand
    op: str
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class SelectStatement:
    targets: tuple[DottedPath, ...]
    ranges: tuple[RangeDecl, ...]
    predicates: tuple[Predicate, ...] = ()

    def literals(self) -> list[Literal]:
        """The literal operands, in token order (only predicates hold them)."""
        return [
            operand
            for predicate in self.predicates
            for operand in (predicate.left, predicate.right)
            if isinstance(operand, Literal)
        ]

    def __str__(self) -> str:
        parts = ["select " + ", ".join(map(str, self.targets))]
        range_texts = []
        for decl in self.ranges:
            source = (
                f"extent({decl.source.variable})" if decl.is_extent else str(decl.source)
            )
            range_texts.append(f"{decl.variable} in {source}")
        parts.append("from " + ", ".join(range_texts))
        if self.predicates:
            parts.append("where " + " and ".join(map(str, self.predicates)))
        return "\n".join(parts)


class _Tokens:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, str]] = []
        position = 0
        while position < len(text):
            match = _TOKEN_RE.match(text, position)
            if match is None:
                if text[position] == '"':
                    raise ParseError(f"unterminated string literal at {position}")
                raise ParseError(f"unexpected character {text[position]!r} at {position}")
            position = match.end()
            kind = match.lastgroup or ""
            if kind != "ws":
                self.tokens.append((kind, match.group()))
        self.index = 0

    def peek(self) -> tuple[str, str] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self.index += 1
        return token

    def expect_ident(self, *keywords: str) -> str:
        kind, text = self.next()
        if kind != "ident":
            raise ParseError(f"expected identifier, got {text!r}")
        if keywords and text.lower() not in keywords:
            raise ParseError(f"expected {' or '.join(keywords)}, got {text!r}")
        return text

    def expect_punct(self, punct: str) -> None:
        kind, text = self.next()
        if kind != "punct" or text != punct:
            raise ParseError(f"expected {punct!r}, got {text!r}")

    def at_keyword(self, keyword: str) -> bool:
        token = self.peek()
        return token is not None and token[0] == "ident" and token[1].lower() == keyword


def parse_select(text: str) -> SelectStatement:
    """Parse a select statement; raises :class:`ParseError` on bad input."""
    tokens = _Tokens(text)
    tokens.expect_ident("select")
    targets = [_parse_dotted(tokens)]
    while tokens.peek() == ("punct", ","):
        tokens.next()
        targets.append(_parse_dotted(tokens))
    tokens.expect_ident("from")
    ranges = [_parse_range(tokens)]
    while tokens.peek() == ("punct", ","):
        tokens.next()
        ranges.append(_parse_range(tokens))
    predicates: list[Predicate] = []
    if tokens.at_keyword("where"):
        tokens.next()
        predicates.append(_parse_predicate(tokens))
        while tokens.at_keyword("and"):
            tokens.next()
            predicates.append(_parse_predicate(tokens))
    trailing = tokens.peek()
    if trailing is not None:
        raise ParseError(f"trailing input starting at {trailing[1]!r}")
    _check_scopes(targets, ranges, predicates)
    return SelectStatement(tuple(targets), tuple(ranges), tuple(predicates))


def _parse_dotted(tokens: _Tokens) -> DottedPath:
    head = tokens.expect_ident()
    attributes: list[str] = []
    while tokens.peek() == ("punct", "."):
        tokens.next()
        attributes.append(tokens.expect_ident())
    return DottedPath(head, tuple(attributes))


def _parse_range(tokens: _Tokens) -> RangeDecl:
    variable = tokens.expect_ident()
    tokens.expect_ident("in")
    kind, text = tokens.next()
    if kind == "ident" and text.lower() == "extent":
        tokens.expect_punct("(")
        type_name = tokens.expect_ident()
        tokens.expect_punct(")")
        return RangeDecl(variable, DottedPath(type_name), is_extent=True)
    if kind != "ident":
        raise ParseError(f"expected range source, got {text!r}")
    attributes: list[str] = []
    while tokens.peek() == ("punct", "."):
        tokens.next()
        attributes.append(tokens.expect_ident())
    return RangeDecl(variable, DottedPath(text, tuple(attributes)))


def _parse_operand(tokens: _Tokens) -> Operand:
    token = tokens.peek()
    if token is None:
        raise ParseError("expected operand")
    if token[0] in ("string", "number"):
        tokens.next()
        return Literal(literal_value(token[1]))
    return _parse_dotted(tokens)


_COMPARISONS = ("=", "<", "<=", ">", ">=")


def _parse_predicate(tokens: _Tokens) -> Predicate:
    left = _parse_operand(tokens)
    token = tokens.next()
    if token[0] == "punct" and token[1] in _COMPARISONS:
        op = token[1]
    elif token[0] == "ident" and token[1].lower() == "in":
        op = "in"
    else:
        raise ParseError(
            f"expected one of {', '.join(_COMPARISONS)} or 'in', got {token[1]!r}"
        )
    right = _parse_operand(tokens)
    return Predicate(left, op, right)


def _check_scopes(targets, ranges, predicates) -> None:
    bound = set()
    for decl in ranges:
        if not decl.is_extent and decl.source.attributes:
            if decl.source.variable not in bound:
                raise ParseError(
                    f"range source {decl.source} references unbound variable "
                    f"{decl.source.variable!r}"
                )
        if decl.variable in bound:
            raise ParseError(f"duplicate range variable {decl.variable!r}")
        bound.add(decl.variable)
    for target in targets:
        if target.variable not in bound:
            raise ParseError(f"select target references unbound {target.variable!r}")
    for predicate in predicates:
        for operand in (predicate.left, predicate.right):
            if isinstance(operand, DottedPath) and operand.variable not in bound:
                raise ParseError(
                    f"predicate references unbound variable {operand.variable!r}"
                )
