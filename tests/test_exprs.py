"""Expression grammar: identifiers, + - * / ^, integer exponents, i literal.

The parser whose every value was a RationalFn stays here as
``reference_parse_expression``, the oracle of the parser that keeps its
values Laurent until a division by more than one term: of its num/den term
lists in dict order and of its error types and messages.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp.exact import GaussianRational
from clusterwp.exprs import ExprError, _Parser, _tokenize, parse_expression
from clusterwp.laurent import LaurentError, LaurentPoly, RationalFn, VarTable

G = GaussianRational
T = VarTable(("x0", "x1"))
X0 = LaurentPoly.variable(T, "x0")
X1 = LaurentPoly.variable(T, "x1")


CASES = [
    ("x0^2 + 1", (X0 ** 2 + 1).as_rational()),
    ("(x1^2+1)/x0", RationalFn(X1 ** 2 + 1, X0)),
    ("-x0^2", (-(X0 ** 2)).as_rational()),          # unary minus binds looser than ^
    ("x0^-1", (X0 ** -1).as_rational()),
    ("2*x0^-1*x1^-1", (2 * X0 ** -1 * X1 ** -1).as_rational()),
    ("x0^1/2", RationalFn(X0, LaurentPoly.constant(T, 2))),  # ^ binds tighter than /
    ("1/2", RationalFn.constant(T, Fraction(1, 2))),
    ("1/2+1/2*i", RationalFn.constant(T, G(Fraction(1, 2), Fraction(1, 2)))),
    ("i", RationalFn.constant(T, G(0, 1))),
    ("-i", RationalFn.constant(T, G(0, -1))),
    ("i*i", RationalFn.constant(T, -1)),
    ("(x0+x1)^2", ((X0 + X1) ** 2).as_rational()),
    ("x0 - x1 - 1", (X0 - X1 - 1).as_rational()),   # left associativity
    ("x0/x1/x1", RationalFn(X0, X1 ** 2)),
    ("  x0  *  x1  ", (X0 * X1).as_rational()),
]


@pytest.mark.parametrize("text,value", CASES)
def test_parse_expression(text, value):
    assert parse_expression(text, T) == value


def test_primed_identifiers():
    t = VarTable(("x", "x'"))
    xp = LaurentPoly.variable(t, "x'")
    assert parse_expression("x * x'", t) == (LaurentPoly.variable(t, "x") * xp).as_rational()


BAD = [
    "x0 +",       # dangling operator
    "(x0",        # unbalanced paren
    "x0^x1",      # non-integer exponent
    "x0^1.5",     # not an integer
    "2i",         # adjacency; write 2*i
    "x0 x1",      # adjacency
    "y9",         # unknown variable
    "",           # empty
    "x0^2^3",     # ^ is non-associative
    "x0^(2)",     # exponent must be a plain integer
    "1.5",        # no decimal literals
]


@pytest.mark.parametrize("text", BAD)
def test_parse_expression_rejects(text):
    with pytest.raises(ExprError):
        parse_expression(text, T)


def test_division_by_zero_constant():
    from clusterwp.laurent import DenominatorZero
    with pytest.raises(DenominatorZero):
        parse_expression("x0/(1-1)", T)


def _random_polys(table):
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=4).map(G)
    gauss = st.builds(G, st.fractions(min_value=-3, max_value=3, max_denominator=3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=3))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * len(table))
    term = st.tuples(exps, st.one_of(coeffs, gauss))
    return st.lists(term, min_size=0, max_size=4).map(
        lambda items: LaurentPoly(table, dict(items))
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip(data):
    f = data.draw(_random_polys(T))
    assert parse_expression(f.to_expr(), T) == f.as_rational()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_render_parse_round_trip_rational(data):
    num = data.draw(_random_polys(T))
    den = data.draw(_random_polys(T).filter(lambda p: not p.is_zero))
    f = RationalFn(num, den)
    assert parse_expression(f.to_expr(), T) == f


# ---------------------------------------------------------------------------
# the all-RationalFn parser, as the oracle of the Laurent-first one
# ---------------------------------------------------------------------------

class _ReferenceParser(_Parser):
    """The grammar's arithmetic with every value a RationalFn (``factor``,
    which only negates, is shared)."""

    def expr(self) -> RationalFn:
        value = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.k += 1
                rhs = self.term()
                value = value + rhs if tok[1] == "+" else value - rhs
            else:
                return value

    def term(self) -> RationalFn:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.k += 1
                rhs = self.factor()
                value = value * rhs if tok[1] == "*" else value / rhs
            else:
                return value

    def power(self) -> RationalFn:
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
            return base ** (sign * int(tok[1]))
        return base

    def atom(self) -> RationalFn:
        tok = self.take()
        kind, value, col = tok
        if kind == "int":
            return RationalFn.constant(self.table, int(value))
        if kind == "ident":
            if value == "i":
                return RationalFn.constant(self.table, GaussianRational(0, 1))
            if value not in self.table:
                raise ExprError(f"unknown variable {value!r}", col)
            return RationalFn.variable(self.table, value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprError(f"unexpected {value!r}", col)


def reference_parse_expression(text, table):
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression", 1)
    parser = _ReferenceParser(tokens, table, len(text))
    value = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ExprError(f"unexpected {leftover[1]!r}", leftover[2])
    return value


def _outcome(parse, text):
    """The num/den term lists of the parse in dict order, or the type and
    message of what it raised."""
    try:
        f = parse(text, T)
    except (ExprError, LaurentError) as exc:
        return type(exc), str(exc)
    return list(f.num.terms.items()), list(f.den.terms.items())


_LEAVES = ["1", "x0", "x1", "2", "i", "x0", "(1/2-i)", "x1", "x0/0", "x1", "(3+2*i)",
           "0^-1", "x0", "x1", "2", "x0", "i", "x1", "1", "x0", "(x0-x0)^-1", "x1",
           "2", "x0", "x1", "1", "(x0+1)", "x1", "i", "(x1-i)", "(x0+x1)"]


@st.composite
def _expressions(draw, depth=3):
    """Sums, products, monomial and non-monomial divisors and negative
    powers over Gaussian literals; a few leaves are a division by zero:
    x0/0, 0^-1 or (x0-x0)^-1."""
    kind = draw(st.integers(0, 5)) if depth else 0
    if kind == 0:
        return draw(st.sampled_from(_LEAVES))
    a = draw(_expressions(depth - 1))
    if kind == 1:
        return f"-{a}" if draw(st.booleans()) else f"({a})^{draw(st.integers(-2, 3))}"
    b = draw(_expressions(depth - 1))
    if kind < 4:
        return f"({a})/({b})"
    return f"{a}{draw(st.sampled_from('+-*/'))}{b}"


@pytest.mark.parametrize("text", [t for t, _ in CASES] + BAD + [
    "x0/0", "0^-1", "(x0-x0)^-1", "x0/(x1-x1)", "(x0+x1)^-2/x0", "x0/(2*x1)", "1/(1/2-i)"])
def test_parse_matches_the_all_rational_reference(text):
    assert _outcome(parse_expression, text) == _outcome(reference_parse_expression, text)


@given(_expressions())
@settings(max_examples=300, deadline=None)
def test_random_expressions_parse_as_the_all_rational_reference(text):
    assert _outcome(parse_expression, text) == _outcome(reference_parse_expression, text)
