"""Recursive-descent parser for the shared expression grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ['^' ['-'] INT]
    atom   := INT | 'i' | IDENT | '(' expr ')'

Numeric literals inside expressions are plain integers; `/` is ordinary
division (so `1/2` is the rational one-half by arithmetic, not a special
token) and `i` is reserved for the imaginary unit.  This keeps precedence
honest: `x^1/2` is (x^1)/2, and there is no maximal-munch ambiguity with
compact Gaussian literals, which belong to point files only.  `^` is
non-associative and takes a possibly negated integer exponent.
"""

from __future__ import annotations

import re as _re

from clusterwp.exact import GaussianRational
from clusterwp.laurent import LaurentPoly, RationalFn, VarTable, _IDENT_RE


class ExprError(ValueError):
    """Syntax or scope error in an expression; carries a 1-based column."""

    def __init__(self, message: str, col: int):
        super().__init__(f"col {col}: {message}")
        self.message = message
        self.col = col


# whitespace is what no alternative matches; any other character is `bad`
_TOKEN_RE = _re.compile(
    rf"(?P<int>[0-9]+)|(?P<ident>{_IDENT_RE.pattern})|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ExprError(f"unexpected character {m.group()!r}", m.start() + 1)
        tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return tokens


def _rational(value):
    return value.as_rational() if type(value) is LaurentPoly else value


class _Parser:
    """Values are LaurentPoly until a division or negative power by a
    polynomial that is not one nonzero term, whose result is a RationalFn."""

    def __init__(self, tokens, table: VarTable, text_len: int):
        self.tokens = tokens
        self.k = 0
        self.table = table
        self.end_col = text_len + 1

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", self.end_col)
        self.k += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ExprError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.k += 1
                rhs = self.term()
                if type(rhs) is RationalFn:     # not the reflected operation
                    value = _rational(value)
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.k += 1
                rhs = self.factor()
                if type(rhs) is RationalFn:
                    value = _rational(value)
                if tok[1] == "*":
                    value = value * rhs
                elif type(rhs) is LaurentPoly and len(rhs.terms) == 1:
                    value = value * rhs ** -1
                else:
                    value = _rational(value) / rhs
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.k += 1
            return -self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.k += 1
            sign = 1
            tok = self.take()
            if tok[0] == "op" and tok[1] == "-":
                sign = -1
                tok = self.take()
            if tok[0] != "int":
                raise ExprError("exponent must be an integer", tok[2])
            if sign < 0 and type(base) is LaurentPoly and len(base.terms) != 1:
                base = base.as_rational()
            return base ** (sign * int(tok[1]))
        return base

    def atom(self):
        tok = self.take()
        kind, value, col = tok
        if kind == "int":
            return LaurentPoly.constant(self.table, int(value))
        if kind == "ident":
            if value == "i":
                return LaurentPoly.constant(self.table, GaussianRational(0, 1))
            if value not in self.table:
                raise ExprError(f"unknown variable {value!r}", col)
            return LaurentPoly.variable(self.table, value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected {value!r}", col)


def parse_expression(text: str, table: VarTable) -> RationalFn:
    """Parse an expression over `table` into an exact rational function."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression", 1)
    parser = _Parser(tokens, table, len(text))
    try:
        value = parser.expr()
    except RecursionError:
        raise ExprError("expression nested too deeply", 1) from None
    leftover = parser.peek()
    if leftover is not None:
        raise ExprError(f"unexpected {leftover[1]!r}", leftover[2])
    return _rational(value)
