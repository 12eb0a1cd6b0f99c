"""Laurent polynomial / rational function layer: frozen values + properties.

Frozen expectations were derived by hand and cross-checked numerically; the
sympy oracle tests re-derive division verdicts and products independently.
The field loop that ``divide_exact`` replaced, one ``max`` per step over
Q(i) coefficients, stays here as ``reference_divide_exact``, the oracle of
its quotients and verdicts.  ``RationalFn``'s own constructor, which
normalizes any denominator, is the oracle of the operations that skip it,
and ``reference_substitute``, which always divides by the substituted
denominator, that of ``substitute``, which skips a denominator of 1.
``reference_evaluate``, the two-pass evaluation that coerced one value per
variable before reading a term, is the oracle of ``evaluate``.
``reference_square``, the square over Q(i) objects, is the oracle of the
square over Gaussian integers, term order included, and
``reference_to_expr``, which rendered each coefficient from its
``Fraction`` parts, that of ``to_expr``, which reads the integer triple.
"""

from fractions import Fraction
from functools import reduce
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp.catalog import CATALOG_KEYS, catalog
from clusterwp.exact import GaussianRational
from clusterwp.forms import pullback, wp_form
from clusterwp.seeds import explore
from clusterwp.laurent import (
    _grlex,
    _substitute_poly,
    DenominatorZero,
    Inhomogeneous,
    LaurentPoly,
    NegativePowerOfZero,
    NotDivisible,
    NotLaurent,
    RationalFn,
    UnboundVariable,
    VarTable,
)

G = GaussianRational

T2 = VarTable(("x0", "x1"))
X0 = LaurentPoly.variable(T2, "x0")
X1 = LaurentPoly.variable(T2, "x1")
ONE2 = LaurentPoly.constant(T2, 1)


# ---------------------------------------------------------------------------
# VarTable
# ---------------------------------------------------------------------------

def test_vartable_basics():
    t = VarTable(("a", "b_1", "c'"))
    assert t.index("b_1") == 1
    assert list(t) == ["a", "b_1", "c'"]
    assert "c'" in t and "z" not in t


@pytest.mark.parametrize("names", [
    ("a", "a"),          # duplicate
    ("1x",),             # bad identifier
    ("x-1",),            # hyphen not allowed
    ("i",),              # reserved for the imaginary unit
    ("",),
    ("x\n",),           # a final newline is not part of a name
])
def test_vartable_rejects(names):
    with pytest.raises(ValueError):
        VarTable(names)


# ---------------------------------------------------------------------------
# polynomial arithmetic, frozen
# ---------------------------------------------------------------------------

def test_difference_of_squares():
    assert (X0 + X1) * (X0 - X1) == X0 ** 2 - X1 ** 2


def test_monomial_and_scalar_ops():
    m = LaurentPoly.monomial(T2, {"x0": 2, "x1": -1}, 3)
    assert m == 3 * X0 ** 2 * X1 ** -1
    assert m - m == LaurentPoly.zero(T2)
    assert (m + 1) - 1 == m


@pytest.mark.parametrize("build", [
    lambda: LaurentPoly(T2, {(Fraction(1, 2), 0): 1}),
    lambda: LaurentPoly.monomial(T2, {"x0": 1.5}),
    lambda: LaurentPoly(T2, {(1,): 1}),
])
def test_the_gate_rejects_exponents_that_are_not_int_vectors_of_the_width(build):
    # x0^1/2 would print as text that reads back as x0/2, and x0^1.5 would
    # truncate to x0
    with pytest.raises(ValueError, match="exponent vector"):
        build()


def test_negative_power_of_nonmonomial_rejected():
    with pytest.raises(ValueError):
        (X0 + X1) ** -1


def test_leading_term_graded_lex():
    # degree first, then lexicographic in table order: x0^2 beats x1^2
    f = X0 ** 2 + X1 ** 2 + X0
    assert f.leading_exponents() == (2, 0)


def test_monomial_content():
    f = X0 ** 2 * X1 ** -1 + X0 ** 3
    assert f.monomial_content() == (2, -1)


def _assert_well_formed(poly, table):
    """What ``LaurentPoly(table, terms)`` would enforce, and the results of
    ring operations skip: no zero coefficient, exponent vectors of the
    table's width, GaussianRational coefficients."""
    assert poly.table == table
    for exps, c in poly.terms.items():
        assert type(exps) is tuple and len(exps) == len(table)
        assert all(type(e) is int for e in exps)
        assert type(c) is GaussianRational and c


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ring_results_are_well_formed(data):
    f = data.draw(random_polys(T2))
    g = data.draw(random_polys(T2))
    d = data.draw(divisors(T2))
    c = data.draw(st.sampled_from([0, 2, Fraction(-1, 3), G(0, 1)]))
    e = data.draw(st.integers(0, 4))
    results = [f + g, f - g, -f, f - f, f + c, f * g, f * c, f * f, f ** e,
               f.partial("x0"), f.partial("x1"), f.shifted((1, -2)),
               (f * d).divide_exact(d), (f * d).divide_exact(c or 5)]
    if f.is_monomial():
        results.append(f ** -e)
    for poly in results:
        _assert_well_formed(poly, T2)
    twin = LaurentPoly(T2, dict(f.terms))
    assert twin is not f and f * f == f * twin


def test_power_edge_cases():
    p = X0 ** -1 * X1 + 2
    assert p ** 1 is p
    assert p ** 0 == ONE2 and (X0 - X0) ** 0 == ONE2


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_power_is_the_repeated_product(data):
    """``x ** e`` is the e-fold product for e in 0..8 on Gaussian scalars and
    Laurent polynomials, and ``x ** -e`` that of the inverse on nonzero
    scalars and on monomials."""
    e = data.draw(st.integers(0, 8))
    z = data.draw(st.builds(G, _PARTS, _PARTS))
    f = data.draw(random_polys(T2))
    assert z ** e == reduce(mul, [z] * e, G(1))
    assert f ** e == reduce(mul, [f] * e, ONE2)
    if z:
        assert z ** -e == reduce(mul, [z.inverse()] * e, G(1))
    exps = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    c = data.draw(st.builds(G, _PARTS, _PARTS).filter(bool))
    inverse = LaurentPoly(T2, {tuple(-x for x in exps): c.inverse()})
    assert LaurentPoly(T2, {exps: c}) ** -e == reduce(mul, [inverse] * e, ONE2)


def test_cancelled_terms_are_dropped():
    i = G(0, 1)
    square = (X0 + i) * (X0 - i)
    assert square == X0 ** 2 + 1 and len(square.terms) == 2


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_divide_exact_frozen():
    q = (X0 ** 2 - X1 ** 2).divide_exact(X0 + X1)
    assert q == X0 - X1


def test_divide_exact_not_divisible():
    num = X1 ** 4 + 2 * X1 ** 2 + 1 + X0 ** 2
    den = X1 ** 2 + 1
    with pytest.raises(NotDivisible):
        num.divide_exact(den)


def test_divide_exact_laurent_content():
    f = X0 ** -1 * X1 + X0
    g = X0 ** -1
    assert (f * g).divide_exact(g) == f


def test_divide_by_scaled_monomial():
    q = (X0 ** 2).divide_exact(2 * X0 ** -1)
    assert q == LaurentPoly.monomial(T2, {"x0": 3}, Fraction(1, 2))


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        X0.divide_exact(LaurentPoly.zero(T2))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_divide_round_trip(data):
    f = data.draw(random_polys(T2))
    g = data.draw(random_polys(T2).filter(lambda p: not p.is_zero))
    assert (f * g).divide_exact(g) == f


def test_divide_exact_rescales_the_remainder():
    # over Gaussian integers these leading coefficients do not divide the
    # remainder's, so the remainder is rescaled; the census workload never
    # gets here
    assert (X0 + 1).divide_exact(2 * X0 + 2) == G(Fraction(1, 2)) * ONE2
    assert (X0 + 1).divide_exact(G(1, 1) * X0 + G(1, 1)) == \
        G(Fraction(1, 2), Fraction(-1, 2)) * ONE2
    f = G(Fraction(1, 3), 2) * X0 * X1 ** -1 + G(0, -1) * X1 + 5
    g = G(1, 1) * X0 ** 2 + 3 * X1 + G(Fraction(1, 3))
    assert (f * g).divide_exact(2 * g) == f * G(Fraction(1, 2))


def reference_divide_exact(num, den):
    """The field loop ``divide_exact`` replaced: strip the monomial
    content, then one ``max`` per step finds the remainder's grlex-leading
    term, with Q(i) coefficients throughout."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return num
    cn = num.monomial_content()
    cd = den.monomial_content()
    n = {tuple(a - b for a, b in zip(e, cn)): c for e, c in num.terms.items()}
    d = {tuple(a - b for a, b in zip(e, cd)): c for e, c in den.terms.items()}
    ld = max(d, key=_grlex)
    dl = d[ld]
    q = {}
    r = n
    while r:
        lr = max(r, key=_grlex)
        diff = tuple(a - b for a, b in zip(lr, ld))
        if any(x < 0 for x in diff):
            raise NotDivisible(f"{num.to_expr()} is not divisible by {den.to_expr()}")
        c = r[lr] / dl
        q[diff] = c
        for de, dc in d.items():
            key = tuple(a + b for a, b in zip(diff, de))
            s = r.get(key)
            s = -(c * dc) if s is None else s - c * dc
            if s:
                r[key] = s
            else:
                r.pop(key, None)
    shift = tuple(a - b for a, b in zip(cn, cd))
    return LaurentPoly(num.table, q).shifted(shift)


def _outcome(divide, num, den):
    """The quotient's terms in order, or the NotDivisible message."""
    try:
        return list(divide(num, den).terms.items())
    except NotDivisible as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_divide_exact_matches_the_field_loop(data):
    table = data.draw(st.sampled_from([T2, T3]))
    f = data.draw(random_polys(table))
    g = data.draw(divisors(table))
    num = data.draw(st.sampled_from([f * g, f * g + f, f, f * g * g]))
    assert _outcome(LaurentPoly.divide_exact, num, g) == \
        _outcome(reference_divide_exact, num, g)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_rationalfn_monomial_denominator_normalized():
    f = (X1 ** 2 + 1) / X0
    # value is (x1^2+1)/x0 ...
    assert f == RationalFn(X1 ** 2 + 1, X0)
    # ... and the stored denominator is 1, the monomial content having been
    # moved into the numerator
    assert f.den == ONE2
    assert f.num == X0 ** -1 * X1 ** 2 + X0 ** -1


def test_rationalfn_cross_multiplication_equality():
    assert RationalFn(ONE2, X0) == RationalFn(X1, X0 * X1)
    assert RationalFn(X0 ** 2 - X1 ** 2, X0 - X1) == (X0 + X1).as_rational()
    assert RationalFn(ONE2, X0) != RationalFn(ONE2, X1)


def test_rationalfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(X0, LaurentPoly.zero(T2))


def test_rationalfn_arithmetic_frozen():
    a = RationalFn(ONE2, X0)
    b = RationalFn(ONE2, X1)
    s = a + b
    assert s == RationalFn(X0 + X1, X0 * X1)
    assert a * b == RationalFn(ONE2, X0 * X1)
    assert a - a == RationalFn(LaurentPoly.zero(T2), ONE2)
    assert (a / b) == RationalFn(X1, X0)
    assert a ** -2 == (X0 ** 2).as_rational()


def test_laurent_minus_rational_defers():
    p = LaurentPoly.variable(T2, "x0")
    r = RationalFn.variable(T2, "x1")
    assert p - r == -(r - p)
    assert p - r == p + (-r) == RationalFn(X0 - X1, ONE2)
    assert p - Fraction(1, 2) == p + Fraction(-1, 2) == X0 - G(Fraction(1, 2))
    with pytest.raises(TypeError, match="unsupported operand"):
        p - 1.5
    with pytest.raises(TypeError, match="unsupported operand"):
        1.5 - p


def test_as_laurent_frozen():
    # ((x1^2+1)^2 + x0^2) / (x0^2 x1) expands to exactly four terms
    num = (X1 ** 2 + 1) ** 2 + X0 ** 2
    den = X0 ** 2 * X1
    expected = (X0 ** -2 * X1 ** 3 + 2 * X0 ** -2 * X1
                + X0 ** -2 * X1 ** -1 + X1 ** -1)
    got = RationalFn(num, den).as_laurent()
    assert got == expected
    assert len(got.terms) == 4


def test_as_laurent_simple():
    assert RationalFn(X0 + X1, X0).as_laurent() == 1 + X0 ** -1 * X1


def test_as_laurent_failure():
    with pytest.raises(NotLaurent):
        RationalFn(X0 ** 2 + X1, X0 + X1).as_laurent()


def test_not_laurent_is_the_division_verdict():
    assert NotLaurent is NotDivisible
    num, den = X0 ** 2 + X1, X0 + X1
    with pytest.raises(NotDivisible) as direct:
        num.divide_exact(den)
    with pytest.raises(NotLaurent) as via:
        RationalFn(num, den).as_laurent()
    assert str(via.value) == str(direct.value)


def test_substitution_frozen():
    # substitute x2 -> (x1^2+1)/x0 into (x2^2+1)/x1
    src = VarTable(("x1", "x2"))
    f = RationalFn(LaurentPoly.variable(src, "x2") ** 2 + 1,
                   LaurentPoly.variable(src, "x1"))
    bindings = {
        "x1": X1.as_rational(),
        "x2": RationalFn(X1 ** 2 + 1, X0),
    }
    out = f.substitute(bindings, T2)
    assert out == RationalFn((X1 ** 2 + 1) ** 2 + X0 ** 2, X0 ** 2 * X1)


def test_substitution_identity():
    f = RationalFn(X0 ** 2 + X1, X0 - X1)
    idmap = {"x0": X0.as_rational(), "x1": X1.as_rational()}
    assert f.substitute(idmap, T2) == f


def test_substitution_zero_denominator():
    f = RationalFn(ONE2, X0)
    zero = LaurentPoly.zero(T2).as_rational()
    with pytest.raises(DenominatorZero):
        f.substitute({"x0": zero}, T2)


def reference_substitute(f, bindings, into):
    """``f.substitute(bindings, into)`` by substituting into both parts and
    dividing, whatever the denominator."""
    num = _substitute_poly(f.num, bindings, into)
    den = _substitute_poly(f.den, bindings, into)
    if den.is_zero:
        raise DenominatorZero("denominator vanishes under substitution")
    return num / den


def _assert_substitute_matches_reference(f, bindings, into):
    got, want = f.substitute(bindings, into), reference_substitute(f, bindings, into)
    assert (_items(got.num), _items(got.den)) == (_items(want.num), _items(want.den))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_substitution_over_a_denominator_of_one_matches_the_division(data):
    # values of one or two terms, and quotients of two such, keep the
    # powers up to 3 of the substitution small
    short = st.lists(st.tuples(st.tuples(*[st.integers(-1, 1)] * 3), _COEFFS.filter(bool)),
                     min_size=1, max_size=2).map(lambda items: LaurentPoly(T3, dict(items)))
    values = st.one_of(short.map(LaurentPoly.as_rational),
                       st.builds(lambda p, q: p / q, short, short))
    f = data.draw(random_polys(T2)).as_rational()
    bindings = {nm: data.draw(values) for nm in T2.names}
    _assert_substitute_matches_reference(f, bindings, T3)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_substitution_in_catalog_pullbacks_matches_the_division(key):
    calls = []
    substitute = RationalFn.substitute

    def recorded(f, bindings, into):
        calls.append((f, bindings, into))
        return substitute(f, bindings, into)

    seed = catalog(key).seed
    with mock.patch.object(RationalFn, "substitute", recorded):
        for k in range(1, seed.matrix.m + 1):
            pullback(wp_form(seed.mutated(k)), seed, k)
    assert any(len(f.den.terms) == 1 and not any(f.den.leading_exponents())
               for f, _, _ in calls)
    for f, bindings, into in calls:
        _assert_substitute_matches_reference(f, bindings, into)


def test_substitution_unbound():
    f = (X0 + X1).as_rational()
    with pytest.raises(UnboundVariable):
        f.substitute({"x0": X0.as_rational()}, T2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_frozen():
    f = X0 ** -1 + X1
    assert f.evaluate({"x0": Fraction(1, 2), "x1": 3}) == G(5)
    g = RationalFn(ONE2, X0 + X1)
    assert g.evaluate({"x0": 1, "x1": 1}) == G(Fraction(1, 2))
    # a variable that does not occur may be missing
    assert (X0 + 1).evaluate({"x0": 2}) == G(3)
    assert LaurentPoly.zero(T2).evaluate({}) == G(0)


def test_evaluate_errors_are_distinct():
    with pytest.raises(DenominatorZero):
        RationalFn(ONE2, X0 + X1).evaluate({"x0": 1, "x1": -1})
    for poly, values, error, message in [
        (X0 + X1, {"x0": 1}, UnboundVariable, "no value for variable 'x1'"),
        # the first variable in table order is named
        (X0 * X1, {}, UnboundVariable, "no value for variable 'x0'"),
        # an unassigned variable wins over a zero base
        (X0 ** -1 + X1, {"x0": 0}, UnboundVariable, "no value for variable 'x1'"),
        (X0 ** -1, {"x0": 0, "x1": 1}, NegativePowerOfZero, "x0 = 0 raised to power -1"),
    ]:
        assert _evaluation(poly.evaluate, values) == (error, message)


def reference_evaluate(poly, values):
    """The two-pass evaluation that ``LaurentPoly.evaluate`` replaced: one
    coerced value per variable that occurs, then one pass over the terms."""
    point = []
    for k, name in enumerate(poly.table.names):
        if not any(exps[k] for exps in poly.terms):
            point.append(None)
            continue
        if name not in values:
            raise UnboundVariable(f"no value for variable {name!r}")
        point.append(G.of(values[name]))
    total = G(0)
    for exps, c in poly.terms.items():
        term = c
        for k, e in enumerate(exps):
            if not e:
                continue
            if not point[k] and e < 0:
                raise NegativePowerOfZero(
                    f"{poly.table.names[k]} = 0 raised to power {e}")
            term = term * point[k] ** e
        total = total + term
    return total


def _evaluation(evaluate, *args):
    """The value, or the exception's type and message."""
    try:
        return evaluate(*args)
    except (UnboundVariable, NegativePowerOfZero) as exc:
        return type(exc), str(exc)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_matches_the_reference(data):
    # a Q(i) point that may leave out or zero some variables
    f = data.draw(random_polys(T3))
    value = st.one_of(st.just(0), st.integers(-3, 3), _COEFFS)
    values = data.draw(st.fixed_dictionaries({nm: value for nm in T3.names}))
    for nm in data.draw(st.lists(st.sampled_from(T3.names), max_size=1)):
        del values[nm]
    assert _evaluation(f.evaluate, values) == _evaluation(reference_evaluate, f, values)


def test_evaluate_gaussian_point():
    # x0 * x2 at (i, -i) -> 1
    t = VarTable(("a", "b"))
    f = LaurentPoly.variable(t, "a") * LaurentPoly.variable(t, "b")
    assert f.evaluate({"a": G(0, 1), "b": G(0, -1)}) == G(1)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def test_partial_frozen():
    f = X0 ** 2 * X1 ** -1
    assert f.partial("x0") == 2 * X0 * X1 ** -1
    assert f.partial("x1") == -(X0 ** 2) * X1 ** -2
    assert LaurentPoly.constant(T2, 5).partial("x0") == LaurentPoly.zero(T2)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_partial_leibniz(data):
    f = data.draw(random_polys(T2))
    g = data.draw(random_polys(T2))
    for v in ("x0", "x1"):
        assert (f * g).partial(v) == f.partial(v) * g + f * g.partial(v)
        assert (f + g).partial(v) == f.partial(v) + g.partial(v)


# ---------------------------------------------------------------------------
# weighted degree
# ---------------------------------------------------------------------------

def test_weighted_degree_frozen():
    f = X0 ** 2 + X1 ** 2
    assert f.weighted_degree({"x0": 1, "x1": 1}) == 2
    with pytest.raises(Inhomogeneous):
        (X0 ** 2 + X1).weighted_degree({"x0": 1, "x1": 1})
    # the same polynomial is homogeneous for weights (1, 2)
    assert (X0 ** 2 + X1).weighted_degree({"x0": 1, "x1": 2}) == 2
    assert (X0 ** -1 * X1).weighted_degree({"x0": 1, "x1": 1}) == 0


def test_weighted_degree_rational():
    f = RationalFn(X0 ** 2 * X1, X0 + X1)
    assert f.weighted_degree({"x0": 1, "x1": 1}) == 2


# ---------------------------------------------------------------------------
# equivalence-relation consistency (cross-multiplication)
# ---------------------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None)
def test_cross_mult_consistent_with_arithmetic(data):
    nonzero = random_polys(T2).filter(lambda p: not p.is_zero)
    num = data.draw(random_polys(T2))
    den = data.draw(nonzero)
    scale = data.draw(nonzero)
    b = data.draw(random_polys(T2)) / data.draw(nonzero)
    a = RationalFn(num, den)
    a_scaled = RationalFn(num * scale, den * scale)
    assert a == a_scaled
    assert a + b == a_scaled + b
    assert a * b == a_scaled * b


def _items(poly):
    return list(poly.terms.items())


def reference_product(f, g):
    """The term list of f * g by the plain double loop, with no shortcut."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(map(add, e1, e2))
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return [(e, c) for e, c in out.items() if c]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fast_paths_keep_the_normal_form(data):
    """``+``, ``-``, ``*``, ``**``, ``constant`` and ``as_rational`` build
    their fractions without renormalizing; renormalizing them by
    ``RationalFn(num, den)`` changes no term and no term order.  The same
    holds for ``inverse`` and ``/``, which do normalize, and a product with
    the constant 1 is the other factor term for term."""
    a, b = data.draw(rationals(T2)), data.draw(rationals(T2))
    c = data.draw(_COEFFS)
    e = data.draw(st.integers(0, 3))
    results = [a + b, a + a, a - b, a + c, -a, a * b, a * a, a * c, a ** e,
               RationalFn.constant(T2, c), a.num.as_rational(), (a - a)]
    if b:
        results += [b.inverse(), a / b, a ** -1 if a else b ** -2]
    for r in results:
        again = RationalFn(r.num, r.den)
        assert (_items(r.num), _items(r.den)) == (_items(again.num), _items(again.den))
    for g in (LaurentPoly.constant(T2, 1), LaurentPoly.constant(T2, c), b.den):
        for f in (a.num, a.den, b.num):
            assert _items(f * g) == reference_product(f, g)
            assert _items(g * f) == reference_product(g, f)


def reference_square(p):
    """The term list of p * p by the Q(i) loop the Gaussian-integer square
    replaced: each cross term once, in the order of the general product."""
    out = {}
    items = list(p.terms.items())
    for i, (e1, c1) in enumerate(items):
        for e2, c2 in items[i:]:
            key = tuple(map(add, e1, e2))
            c = c1 * c2
            if e2 is not e1:
                c = c + c
            out[key] = out[key] + c if key in out else c
    return [(e, c) for e, c in out.items() if c]


# the zero polynomial, one term, and cross terms that cancel:
# (1 + x0 + x1 - x0*x1)^2 has no x0*x1 term
SQUARE_CASES = [
    LaurentPoly.zero(T2),
    LaurentPoly.monomial(T2, (-2, 3), G(Fraction(1, 3), -2)),
    1 + X0 + X1 - X0 * X1,
    (X0 - G(0, 1) * X1 ** -1) * Fraction(1, 2),
]


@pytest.mark.parametrize("p", SQUARE_CASES, ids=["zero", "one-term", "cancel", "gaussian"])
def test_square_cases_match_the_q_i_loop(p):
    assert _items(p * p) == reference_square(p)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_square_matches_the_q_i_loop(data):
    table = data.draw(st.sampled_from([T2, T3]))
    p = data.draw(st.one_of(random_polys(table), wide_polys(table)))
    assert _items(p * p) == reference_square(p)


def test_catalog_squares_match_the_q_i_loop():
    for key in ("markov", "affine-a11"):
        for p in explore(catalog(key).seed, max_seeds=30).variables.values():
            assert _items(p * p) == reference_square(p)
            assert _items(p ** 3) == _items(p * p * p)


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------

def test_to_expr_deterministic():
    f = X1 ** 2 + X0 ** 2 + X0 - 1
    assert f.to_expr() == "x0^2 + x1^2 + x0 - 1"
    g = 2 * X0 ** -1 * X1 ** -1
    assert g.to_expr() == "2*x0^-1*x1^-1"
    assert LaurentPoly.zero(T2).to_expr() == "0"
    h = LaurentPoly.constant(T2, G(Fraction(1, 2), Fraction(-1, 2))) * X0
    assert h.to_expr() == "(1/2-1/2*i)*x0"
    r = RationalFn(X1 ** 2 + 1, X0 + X1)
    assert r.to_expr() == "(x1^2 + 1)/(x0 + x1)"


def _reference_gaussian_expr(c):
    if not c.im:
        return str(c.re)
    if c.im == 1:
        imag = "i"
    elif c.im == -1:
        imag = "-i"
    else:
        imag = f"{c.im}*i"
    if not c.re:
        return imag
    joiner = "+" if not imag.startswith("-") else ""
    return f"{c.re}{joiner}{imag}"


def reference_to_expr(poly):
    """``to_expr`` as it was when it rendered each coefficient from its
    ``Fraction`` parts ``re`` and ``im``, comparing it with 1 and -1."""
    if not poly.terms:
        return "0"
    parts = []
    for exps in sorted(poly.terms, key=_grlex, reverse=True):
        c = poly.terms[exps]
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(poly.table.names, exps) if e)
        if not mono:
            parts.append(_reference_gaussian_expr(c))
        elif c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        elif not c.im:
            parts.append(f"{c.re}*{mono}")
        else:
            parts.append(f"({_reference_gaussian_expr(c)})*{mono}")
    text = parts[0]
    for p in parts[1:]:
        text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return text


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_to_expr_matches_the_fraction_rendering(data):
    exps = st.one_of(st.just((0, 0, 0)), st.tuples(*[st.integers(-1, 2)] * 3))
    coeffs = st.builds(G, _LITERAL_PARTS, _LITERAL_PARTS)
    poly = LaurentPoly(T3, dict(data.draw(st.lists(st.tuples(exps, coeffs), max_size=5))))
    assert poly.to_expr() == reference_to_expr(poly)


# ---------------------------------------------------------------------------
# sympy oracle
# ---------------------------------------------------------------------------

def _to_sympy(poly):
    import sympy

    out = 0
    syms = [sympy.Symbol(n) for n in poly.table.names]
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.re) + sympy.I * sympy.Rational(coeff.im)
        for s, e in zip(syms, exps):
            term *= s ** e
        out += term
    return sympy.expand(out)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_product_matches_sympy(data):
    import sympy

    f = data.draw(random_polys(T2))
    g = data.draw(random_polys(T2))
    assert sympy.simplify(_to_sympy(f * g) - _to_sympy(f) * _to_sympy(g)) == 0


def test_not_divisible_verdict_matches_sympy():
    import sympy

    x0, x1 = sympy.symbols("x0 x1")
    num = x1 ** 4 + 2 * x1 ** 2 + 1 + x0 ** 2
    den = x1 ** 2 + 1
    _, rem = sympy.div(num, den, x0, x1)
    assert rem != 0  # independent confirmation of the NotDivisible verdict


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

T3 = VarTable(("x0", "x1", "x2"))

_PARTS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_COEFFS = st.one_of(_PARTS.map(G), st.builds(G, _PARTS, _PARTS))
# parts that are zero, +-1, negative or non-integral, so 0, +-1, +-i and
# d > 1 all turn up often
_LITERAL_PARTS = st.one_of(st.sampled_from([0, 1, -1]), _PARTS)


def random_polys(table):
    """Up to four terms with Gaussian-rational coefficients, about half of
    them with a nonzero imaginary part."""
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * len(table))
    term = st.tuples(exps, _COEFFS)
    return st.lists(term, min_size=0, max_size=4).map(
        lambda items: LaurentPoly(table, dict(items))
    )


def wide_polys(table):
    """Up to ten terms with exponents -2..2, Gaussian-integer coefficients
    or ones over a common denominator, so cross terms often collide."""
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * len(table))
    parts = st.sampled_from([-2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 4)])
    coeffs = st.builds(G, parts, parts)
    return st.lists(st.tuples(exps, coeffs), max_size=10).map(
        lambda items: LaurentPoly(table, dict(items)))


def rationals(table):
    """``RationalFn(num, den)`` with Gaussian coefficients and a denominator
    of one, two or three terms, so that its normal form is often a binomial
    with a content shift and a rescaled leading coefficient."""
    dens = st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * len(table)),
                              _COEFFS.filter(bool)), min_size=1, max_size=3)
    return st.builds(lambda num, terms: RationalFn(num, LaurentPoly(table, dict(terms))),
                     random_polys(table), dens.filter(lambda t: len(dict(t)) == len(t)))


def divisors(table):
    """Nonzero polynomials whose grlex-leading coefficient is often not a
    unit of the Gaussian integers, such as 2, 1+i or 1/3."""
    lead = st.sampled_from([G(1), G(2), G(1, 1), G(Fraction(1, 3)), G(3, -2), G(0, 2)])

    def with_lead(poly, c):
        terms = dict(poly.terms)
        terms[poly.leading_exponents()] = c
        return LaurentPoly(table, terms)
    return st.builds(with_lead, random_polys(table).filter(bool), lead)
