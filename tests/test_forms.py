"""Chart 2-forms, symbolic reduction, pullback, invariance, grading, files.

The reduction that formed both products and their difference for every
slot pair stays here as ``reference_reduce``, the oracle of ``_reduce``,
which forms only the products whose factors both have terms.  The chart
form that normalized ``B_ij/(f_i f_j)`` and the rewrite that multiplied out
its powers of 1/P+ stay as ``reference_wp_form`` and
``reference_regularize_at``, the oracles of the Laurent monomials that
``wp_form`` and ``regularize_at`` now build directly.
"""

import itertools
import random
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp import forms as forms_module
from clusterwp.catalog import CATALOG_KEYS, catalog
from clusterwp.exprs import parse_expression
from clusterwp.forms import (
    ChartForm,
    FormFileError,
    SymbolicForm,
    check_invariance,
    emit_form_file,
    form_degree,
    form_difference,
    forms_equal,
    parse_form_file,
    pullback,
    reduce_to_chart,
    wp_form,
)
from clusterwp.laurent import Inhomogeneous, LaurentPoly, NotLaurent, RationalFn, VarTable
from clusterwp.regularity import HypothesisViolated, VanishingPattern, regularize_at
from clusterwp.seeds import (
    ExchangeMatrix, Seed, _chart, _exchange_monomials, _exchange_partner, _partner_names,
    acyclic_presentation, explore, is_acyclic, parse_seed_file, prime_namer)

SL2 = Seed.initial(ExchangeMatrix(1, 3, ((0, 1, 1),)), ("x", "c1", "c2"))
A3 = Seed.initial(
    ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0))), ("x13", "x14", "x15"))
AFFINE = Seed.initial(ExchangeMatrix(2, 2, ((0, 2), (-2, 0))), ("x0", "x1"))
MARKOV = Seed.initial(
    ExchangeMatrix(3, 3, ((0, 2, -2), (-2, 0, 2), (2, -2, 0))), ("x1", "x2", "x3"))
GOLDEN = Path(__file__).parent / "golden"


def rf(seed_or_table, text):
    table = seed_or_table if isinstance(seed_or_table, VarTable) else seed_or_table.chart()
    return parse_expression(text, table)


# ---------------------------------------------------------------------------
# wp_form
# ---------------------------------------------------------------------------

def test_wp_sl2_frozen():
    w = wp_form(SL2)
    assert set(w.coeffs) == {(1, 2), (1, 3)}
    assert w.coeffs[(1, 2)] == rf(SL2, "1/(x*c1)")
    assert w.coeffs[(1, 3)] == rf(SL2, "1/(x*c2)")


def test_wp_a3_frozen():
    w = wp_form(A3)
    assert set(w.coeffs) == {(1, 2), (2, 3)}
    assert w.coeffs[(1, 2)] == rf(A3, "1/(x13*x14)")
    assert w.coeffs[(2, 3)] == rf(A3, "1/(x14*x15)")


def test_wp_affine_frozen():
    w = wp_form(AFFINE)
    assert set(w.coeffs) == {(1, 2)}
    assert w.coeffs[(1, 2)] == rf(AFFINE, "2/(x0*x1)")


def test_wp_markov_frozen():
    w = wp_form(MARKOV)
    assert w.coeffs[(1, 2)] == rf(MARKOV, "2/(x1*x2)")
    assert w.coeffs[(1, 3)] == rf(MARKOV, "-2/(x1*x3)")
    assert w.coeffs[(2, 3)] == rf(MARKOV, "2/(x2*x3)")


def test_wp_mutated_chart():
    s = AFFINE.mutated(1)
    w = wp_form(s)
    assert s.names == ("x0'", "x1")
    assert w.coeffs[(1, 2)] == rf(s, "-2/(x0'*x1)")


# ---------------------------------------------------------------------------
# ChartForm container
# ---------------------------------------------------------------------------

def test_chartform_prunes_zero():
    f = ChartForm(AFFINE, {(1, 2): rf(AFFINE, "x0 - x0")})
    assert f.coeffs == {}


def test_chartform_rejects_bad_slot():
    with pytest.raises(ValueError):
        ChartForm(AFFINE, {(2, 1): rf(AFFINE, "1")})
    with pytest.raises(ValueError):
        ChartForm(AFFINE, {(1, 3): rf(AFFINE, "1")})
    # frozen-frozen slots are representable (reductions can hit them)
    f = ChartForm(SL2, {(2, 3): rf(SL2, "1")})
    assert (2, 3) in f.coeffs


def test_chartform_table_mismatch():
    with pytest.raises(ValueError):
        ChartForm(AFFINE, {(1, 2): rf(SL2, "1/x")})


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError, match="cannot treat 0.5 as an exact rational"):
        ChartForm(AFFINE, {(1, 2): 0.5})
    with pytest.raises(TypeError, match="cannot treat 0.5 as an exact rational"):
        SymbolicForm(AFFINE, {}, [(0.5, "x0", "x1")])
    with pytest.raises(ValueError, match="term coefficient uses a foreign table"):
        SymbolicForm(AFFINE, {}, [(rf(SL2, "x"), "x0", "x1")])
    assert ChartForm(AFFINE, {(1, 2): 3}).coeffs[(1, 2)] == 3


def test_forms_equal_representation_insensitive():
    a = ChartForm(AFFINE, {(1, 2): rf(AFFINE, "2/(x0*x1)")})
    b = ChartForm(AFFINE, {(1, 2): rf(AFFINE, "(2*x0)/(x0^2*x1)")})
    assert forms_equal(a, b)
    assert a == b


def test_forms_equal_false_on_doubling():
    w = wp_form(SL2)
    assert not forms_equal(w, w.scaled(2))


def test_forms_equal_chart_mismatch():
    for combine in (forms_equal, form_difference, ChartForm.plus):
        with pytest.raises(ValueError, match="pull back to a common chart first"):
            combine(wp_form(SL2), wp_form(A3))


def test_form_difference_frozen():
    w = wp_form(AFFINE)
    half = w.scaled(rf(AFFINE, "1/2"))
    d = form_difference(w, half)
    assert d.coeffs == {(1, 2): rf(AFFINE, "1/(x0*x1)")}
    assert form_difference(w, w).coeffs == {}


# ---------------------------------------------------------------------------
# symbolic forms and reduction
# ---------------------------------------------------------------------------

def sl2_once_mutated_form():
    chart = SL2.chart()
    xprime = rf(SL2, "(c1*c2 + 1)/x").as_laurent()
    table = VarTable(("x", "c1", "c2", "x'"))
    return SymbolicForm(SL2, {"x'": xprime},
                        [(parse_expression("1/(c1*c2)", table), "x", "x'")])


def test_reduce_sl2_alternate_expression():
    form = sl2_once_mutated_form()
    assert forms_equal(reduce_to_chart(form, SL2), wp_form(SL2))


def test_reduce_a3_alternate_expression():
    chart = A3.chart()
    x24 = rf(A3, "(x14 + 1)/x13").as_laurent()
    x46 = rf(A3, "(x14 + 1)/x15").as_laurent()
    table = VarTable(("x13", "x14", "x15", "x24", "x46"))
    form = SymbolicForm(A3, {"x24": x24, "x46": x46}, [
        (parse_expression("1/x14", table), "x13", "x24"),
        (parse_expression("1/x14", table), "x46", "x15"),
    ])
    assert form.table == table
    assert forms_equal(reduce_to_chart(form, A3), wp_form(A3))


def test_affine_alternate_charts():
    # both once-mutated two-variable charts give back the same form
    x2 = rf(AFFINE, "(x1^2 + 1)/x0").as_laurent()
    t2 = VarTable(("x0", "x1", "x2"))
    up = SymbolicForm(AFFINE, {"x2": x2},
                      [(parse_expression("1/x1^2", t2), "x0", "x2")])
    assert forms_equal(reduce_to_chart(up, AFFINE), wp_form(AFFINE))

    xm1 = rf(AFFINE, "(x0^2 + 1)/x1").as_laurent()
    tm = VarTable(("x0", "x1", "xm1"))
    down = SymbolicForm(AFFINE, {"xm1": xm1},
                        [(parse_expression("1/x0^2", tm), "xm1", "x1")])
    assert forms_equal(reduce_to_chart(down, AFFINE), wp_form(AFFINE))


def test_reduce_drops_equal_generators():
    form = SymbolicForm(SL2, {}, [(rf(SL2, "x"), "c1", "c1")])
    assert form.terms == ()
    assert reduce_to_chart(form, SL2).coeffs == {}


def test_symbolic_unknown_generator():
    with pytest.raises(ValueError):
        SymbolicForm(SL2, {}, [(rf(SL2, "1"), "x", "nope")])


def test_reduce_antisymmetry():
    xprime = rf(SL2, "(c1*c2 + 1)/x").as_laurent()
    table = VarTable(("x", "c1", "c2", "x'"))
    c = parse_expression("(x + c1)/c2", table)
    form = SymbolicForm(SL2, {"x'": xprime}, [(c, "x", "x'"), (c, "x'", "x")])
    assert reduce_to_chart(form, SL2).coeffs == {}


def test_reduce_swap_negates():
    xprime = rf(SL2, "(c1*c2 + 1)/x").as_laurent()
    table = VarTable(("x", "c1", "c2", "x'"))
    c = parse_expression("c1 + 2", table)
    plus = reduce_to_chart(SymbolicForm(SL2, {"x'": xprime}, [(c, "x", "x'")]), SL2)
    minus = reduce_to_chart(SymbolicForm(SL2, {"x'": xprime}, [(c, "x'", "x")]), SL2)
    assert forms_equal(plus, minus.scaled(-1))


def random_symbolic_terms(rng, table, names, count):
    terms = []
    for _ in range(count):
        coeff = LaurentPoly.zero(table)
        for _ in range(rng.randint(1, 3)):
            exps = {nm: rng.randint(-2, 2) for nm in
                    rng.sample(names, rng.randint(0, 2))}
            coeff = coeff + rng.randint(-3, 3) * LaurentPoly.monomial(table, exps)
        g, h = rng.sample(names, 2)
        terms.append((RationalFn(coeff), g, h))
    return terms


def test_reduce_linearity_random():
    rng = random.Random(7)
    xprime = rf(SL2, "(c1*c2 + 1)/x").as_laurent()
    gens = {"x'": xprime}
    table = VarTable(("x", "c1", "c2", "x'"))
    names = list(table.names)
    for _ in range(25):
        f_terms = random_symbolic_terms(rng, table, names, rng.randint(1, 3))
        g_terms = random_symbolic_terms(rng, table, names, rng.randint(1, 3))
        left = reduce_to_chart(SymbolicForm(SL2, gens, f_terms + g_terms), SL2)
        a = reduce_to_chart(SymbolicForm(SL2, gens, f_terms), SL2)
        b = reduce_to_chart(SymbolicForm(SL2, gens, g_terms), SL2)
        assert forms_equal(left, a.plus(b))


def test_two_names_same_expansion_wedge_to_zero():
    # d(e) wedge d(e) = 0 even when e is reached through two generator names
    e = rf(AFFINE, "(x1^2 + 1)/x0").as_laurent()
    table = VarTable(("x0", "x1", "g1", "g2"))
    form = SymbolicForm(AFFINE, {"g1": e, "g2": e},
                        [(parse_expression("x0*x1", table), "g1", "g2")])
    assert reduce_to_chart(form, AFFINE).coeffs == {}


# ---------------------------------------------------------------------------
# pullback and invariance
# ---------------------------------------------------------------------------

def test_pullback_sl2():
    mutated = SL2.mutated(1)
    assert forms_equal(pullback(wp_form(mutated), SL2, 1), wp_form(SL2))


def test_pullback_affine():
    mutated = AFFINE.mutated(1)
    assert forms_equal(pullback(wp_form(mutated), AFFINE, 1), wp_form(AFFINE))


def test_pullback_a3_middle():
    mutated = A3.mutated(2)
    assert forms_equal(pullback(wp_form(mutated), A3, 2), wp_form(A3))


def test_pullback_zero_form():
    mutated = AFFINE.mutated(1)
    zero = ChartForm(mutated, {})
    assert pullback(zero, AFFINE, 1).coeffs == {}


def test_pullback_chart_mismatch():
    with pytest.raises(ValueError):
        pullback(wp_form(AFFINE.mutated(1)), AFFINE, 2)


def test_pullback_partner_name_already_in_target():
    renamed = AFFINE.mutated(1, "x0")     # the partner keeps the old name
    with pytest.raises(ValueError, match="duplicate variable name"):
        pullback(wp_form(renamed), AFFINE, 1)


def test_pullback_substitutes_each_coefficient_once(monkeypatch):
    calls = []
    substitute = RationalFn.substitute

    def counted(self, bindings, into):
        calls.append(self)
        return substitute(self, bindings, into)

    monkeypatch.setattr(RationalFn, "substitute", counted)
    form = wp_form(MARKOV.mutated(2))
    assert forms_equal(pullback(form, MARKOV, 2), wp_form(MARKOV))
    assert len(calls) == len(form.coeffs) == 3


def test_check_invariance_mutates_each_prefix_once(monkeypatch):
    calls = []
    mutated = Seed.mutated

    def counted(self, k, new_name=None):
        calls.append(k)
        return mutated(self, k, new_name)

    monkeypatch.setattr(Seed, "mutated", counted)
    assert len(check_invariance(A3, 3)) == 3 + 9 + 27
    assert len(calls) == 3 + 9 + 27


# Seeds whose wp_form does not glue across every mutation; these pin
# failing verdicts, which the chained reference below agrees with.
C3 = Seed.initial(
    ExchangeMatrix(3, 3, ((0, 2, 0), (-1, 0, 1), (0, -1, 0))), ("a", "b", "c"))
M2 = Seed.initial(ExchangeMatrix(2, 3, ((0, 2, 1), (-1, 0, 1))), ("a", "b", "c"))


def test_check_invariance_failing_verdicts():
    report = dict(check_invariance(C3, 3))
    assert len(report) == 39
    assert sum(not ok for ok in report.values()) == 20
    for seq in [(2,), (1, 2), (2, 1), (2, 3), (3, 2)]:
        assert report[seq] is False
    assert report[(2, 2)] is True     # mu_2 twice is the identity
    report = dict(check_invariance(M2, 3))
    assert (len(report), sum(not ok for ok in report.values())) == (14, 8)
    assert (report[(2,)], report[(2, 2)]) == (False, True)


def test_check_invariance_sl2():
    report = check_invariance(SL2, 2)
    assert report == [((1,), True), ((1, 1), True)]


def test_check_invariance_affine_depth2():
    report = check_invariance(AFFINE, 2)
    assert [seq for seq, _ in report] == [
        (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(ok for _, ok in report)


def test_check_invariance_markov_depth1():
    report = check_invariance(MARKOV, 1)
    assert report == [((1,), True), ((2,), True), ((3,), True)]


def chained_invariance(seed, depth):
    """Reference verdicts: pull each sequence's form back through its whole
    chain of charts and compare with the base form."""
    base = wp_form(seed)
    charts = {(): seed}
    report = []
    for d in range(1, depth + 1):
        for ks in itertools.product(range(1, seed.matrix.m + 1), repeat=d):
            charts[ks] = charts[ks[:-1]].mutated(ks[-1])
            form = wp_form(charts[ks])
            for t in range(d, 0, -1):
                form = pullback(form, charts[ks[:t - 1]], ks[t - 1])
            report.append((ks, forms_equal(form, base)))
    return report


def golden_seed(name):
    return parse_seed_file((GOLDEN / f"{name}.seed").read_text(), f"{name}.seed")


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_check_invariance_matches_chained_catalog(key):
    seed = catalog(key).seed
    assert check_invariance(seed, 3) == chained_invariance(seed, 3)


@pytest.mark.parametrize("name", ["d4", "g2-frozen"])
def test_check_invariance_matches_chained_files(name):
    seed = golden_seed(name)
    assert check_invariance(seed, 3) == chained_invariance(seed, 3)


@pytest.mark.parametrize("seed", [C3, M2], ids=["C3", "M2"])
def test_check_invariance_matches_chained_failing(seed):
    report = check_invariance(seed, 3)
    assert report == chained_invariance(seed, 3)
    assert not all(ok for _, ok in report)


@st.composite
def small_seeds(draw, max_frozen=1):
    """B = S D on the mutable block (S skew-symmetric, D a positive
    diagonal), entries in -2..2, with up to ``max_frozen`` frozen columns."""
    m = draw(st.integers(1, 3))
    frozen = draw(st.integers(0, max_frozen))
    d = [draw(st.integers(1, 2)) for _ in range(m)]
    rows = [[0] * (m + frozen) for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = draw(st.integers(-1, 1))
            rows[i][j], rows[j][i] = s * d[j], -s * d[i]
        for j in range(m, m + frozen):
            rows[i][j] = draw(st.integers(-2, 2))
    matrix = ExchangeMatrix(m, m + frozen, tuple(tuple(row) for row in rows))
    return Seed.initial(matrix, [f"v{i}" for i in range(m + frozen)])


@settings(max_examples=40, deadline=None)
@given(small_seeds())
def test_check_invariance_matches_chained_random(seed):
    assert check_invariance(seed, 2) == chained_invariance(seed, 2)


def _is_monomial(c):
    try:
        return c.as_laurent().is_monomial()
    except NotLaurent:
        return False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_carry_is_constant_exactly_where_the_pullback_is(data):
    # the dlog carry of the seed's own form or of any skew integer matrix
    # says "constant" exactly when every coefficient of the Laurent pullback
    # is a monomial, and is then that pullback
    seed = data.draw(small_seeds(max_frozen=2))
    n = seed.matrix.n
    k = data.draw(st.integers(1, seed.matrix.m))
    w = forms_module._log_matrix(seed)
    if data.draw(st.booleans()):
        upper = {(i, j): data.draw(st.integers(-2, 2))
                 for i, j in itertools.combinations(range(n), 2)}
        w = tuple(tuple(upper.get((i, j), -upper.get((j, i), 0)) for j in range(n))
                  for i in range(n))
    t = seed.mutated(k)
    pulled = pullback(forms_module._dlog_form(seed, w), t, k)
    carried = forms_module._carry(w, seed.matrix.rows[k - 1], k)
    assert (carried is not None) == all(_is_monomial(c) for c in pulled.coeffs.values())
    if carried is not None:
        assert all(carried[i][j] == -carried[j][i] for i in range(n) for j in range(n))
        assert forms_equal(forms_module._dlog_form(t, carried), pulled)


@settings(max_examples=40, deadline=None)
@given(small_seeds(max_frozen=2))
def test_exchange_monomials_are_read_off_the_matrix(seed):
    # P+ = prod_{B_kj > 0} x_j^B_kj and P- = prod_{B_kj < 0} x_j^-B_kj, in
    # column order, for every relation of a walk and of a presentation
    def factors(s, k, sign):
        entries = [(nm, sign * s.matrix.b(k, j)) for j, nm in enumerate(s.names, 1)]
        return tuple((nm, e) for nm, e in entries if e > 0)

    e = explore(seed, max_depth=2)
    for rel in e.relations():
        s = e.seeds[rel.seed_index]
        assert rel.var == s.names[rel.direction - 1]
        assert (rel.pos, rel.neg) == (factors(s, rel.direction, 1),
                                      factors(s, rel.direction, -1))
    if is_acyclic(seed.matrix):
        pres = acyclic_presentation(seed)
        m, n = seed.matrix.m, seed.matrix.n
        for i, rel in enumerate(pres.relations, 1):
            row = [seed.matrix.b(i, j) for j in range(1, n + 1)] + [0] * m
            pos = LaurentPoly.monomial(pres.table, [max(b, 0) for b in row])
            neg = LaurentPoly.monomial(pres.table, [max(-b, 0) for b in row])
            x, x_prime = (LaurentPoly.variable(pres.table, nm)
                          for nm in (seed.names[i - 1], pres.primed_names[i - 1]))
            assert rel == x * x_prime - pos - neg


def reference_reduce(terms, gens, chart):
    """``forms._reduce`` with the dense wedge pg[i]*ph[j] - pg[j]*ph[i] of
    every slot pair, zero products included."""
    chart_table = chart.chart()
    bindings = {nm: RationalFn(exp) for nm, exp in gens.items()}
    partials = {nm: [exp.partial(v) for v in chart.names]
                for nm, exp in gens.items()}
    slots = {}
    for coeff, g, h in terms:
        c = coeff.substitute(bindings, chart_table)
        if c.num.is_zero:
            continue
        pg, ph = partials[g], partials[h]
        for i, j in itertools.combinations(range(len(chart.names)), 2):
            wedge = pg[i] * ph[j] - pg[j] * ph[i]
            if wedge.is_zero:
                continue
            slot = (i + 1, j + 1)
            contribution = c * wedge
            slots[slot] = slots[slot] + contribution if slot in slots else contribution
    return ChartForm(chart, slots)


def _reduced_both_ways(reduce):
    """``reduce()`` with ``forms._reduce``, then with ``reference_reduce``."""
    fast = reduce()
    with mock.patch.object(forms_module, "_reduce", reference_reduce):
        return fast, reduce()


def _pairs(form):
    """Every coefficient's num/den term lists, in order, keyed by its slot
    (ChartForm) or by its generators (SymbolicForm)."""
    keyed = (form.coeffs.items() if isinstance(form, ChartForm)
             else [((g, h), c) for c, g, h in form.terms])
    return [(key, list(c.num.terms.items()), list(c.den.terms.items()))
            for key, c in keyed]


def _assert_pullbacks_match_reference(seed):
    """The pullbacks of the chart forms one and two mutations away, and the
    second chart's form pulled back twice, agree with the reference in
    emitted bytes and in every num/den pair."""
    for k in range(1, seed.matrix.m + 1):
        near = seed.mutated(k)
        cases = [(wp_form(near), seed, k)]
        for kk in range(1, seed.matrix.m + 1):
            far = near.mutated(kk)
            cases.append((wp_form(far), near, kk))
            cases.append((pullback(wp_form(far), near, kk), seed, k))
        for form, target, d in cases:
            fast, ref = _reduced_both_ways(lambda: pullback(form, target, d))
            assert emit_form_file(fast) == emit_form_file(ref)
            assert _pairs(fast) == _pairs(ref)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_pullbacks_match_the_dense_reduction_on_the_catalog(key):
    _assert_pullbacks_match_reference(catalog(key).seed)


@settings(max_examples=30, deadline=None)
@given(small_seeds(max_frozen=2))
def test_pullbacks_match_the_dense_reduction_on_random_seeds(seed):
    _assert_pullbacks_match_reference(seed)


@pytest.mark.parametrize("key,name", [("a3", "a3-binomial-den"),
                                      ("markov", "markov-binomial-den")])
def test_reductions_match_the_dense_reduction_on_binomial_denominators(key, name):
    seed = catalog(key).seed
    parsed = parse_form_file((GOLDEN / f"{name}.form").read_text(), seed)
    fast, ref = _reduced_both_ways(lambda: reduce_to_chart(parsed, seed))
    assert emit_form_file(fast) == emit_form_file(ref)
    assert _pairs(fast) == _pairs(ref)
    assert any(len(c.den.terms) > 1 for c in fast.coeffs.values())


def reference_wp_form(seed):
    """The chart form with each coefficient normalized from B_ij/(f_i f_j)."""
    table = seed.chart()
    coeffs = {}
    for i in range(1, seed.matrix.m + 1):
        fi = LaurentPoly.variable(table, seed.names[i - 1])
        for j in range(i + 1, seed.matrix.n + 1):
            b = seed.matrix.b(i, j)
            if b == 0:
                continue
            fj = LaurentPoly.variable(table, seed.names[j - 1])
            coeffs[(i, j)] = RationalFn(LaurentPoly.constant(table, b), fi * fj)
    return ChartForm(seed, coeffs)


def reference_regularize_at(seed, pattern):
    """The rewrite of an accepted pattern with 1/P+ multiplied out of
    variables' powers and every monomial denominator normalized."""
    vanishing = sorted(pattern.indices)
    chart_table = seed.chart()
    chart_vars = {nm: LaurentPoly.variable(chart_table, nm) for nm in seed.names}
    partners = _partner_names(seed, prime_namer)
    extras = {partners[i - 1]: _exchange_partner(
        _chart(seed), i, lambda nm, e: chart_vars[nm] ** e, chart_table) for i in vanishing}
    sym_table = VarTable(seed.names + tuple(extras))
    var = {nm: LaurentPoly.variable(sym_table, nm) for nm in sym_table.names}
    terms = []
    for i in vanishing:
        name_i, partner = seed.names[i - 1], partners[i - 1]
        pos, neg = _exchange_monomials(seed.matrix.rows[i - 1], seed.names)
        multiplier = prod([var[nm] ** -e for nm, e in pos],
                          start=LaurentPoly.constant(sym_table, 1))
        terms.append((RationalFn(multiplier), name_i, partner))
        terms += [(RationalFn(multiplier * var[partner] * -e, var[nm]), name_i, nm)
                  for nm, e in neg]
    for a, b in sorted(reference_wp_form(seed).coeffs):
        if {a, b}.isdisjoint(pattern.indices):
            g, h = seed.names[a - 1], seed.names[b - 1]
            terms.append((RationalFn(LaurentPoly.constant(sym_table, seed.matrix.b(a, b)),
                                     var[g] * var[h]), g, h))
    return SymbolicForm(seed, extras, terms)


def _assert_monomials_match_reference(seed):
    """``wp_form`` and ``regularize_at`` at every pattern it accepts give the
    reference's num/den pairs, generators and bytes; returns the patterns."""
    assert _pairs(wp_form(seed)) == _pairs(reference_wp_form(seed))
    accepted = []
    for size in range(seed.matrix.m + 1):
        for indices in itertools.combinations(range(1, seed.matrix.m + 1), size):
            pattern = VanishingPattern(seed, frozenset(indices))
            try:
                form = regularize_at(seed, pattern)
            except (HypothesisViolated, ValueError):
                continue
            ref = reference_regularize_at(seed, pattern)
            assert _pairs(form) == _pairs(ref)
            assert ([(nm, list(exp.terms.items())) for nm, exp in form.gens.items()]
                    == [(nm, list(exp.terms.items())) for nm, exp in ref.gens.items()])
            assert emit_form_file(form) == emit_form_file(ref)
            accepted.append(indices)
    return accepted


@pytest.mark.parametrize("key,accepted", [
    ("sl2", 2), ("a3", 5), ("affine-a11", 3), ("markov", 4)])
def test_chart_monomials_match_the_normalized_construction_on_the_catalog(key, accepted):
    assert len(_assert_monomials_match_reference(catalog(key).seed)) == accepted


@settings(max_examples=40, deadline=None)
@given(small_seeds(max_frozen=2))
def test_chart_monomials_match_the_normalized_construction_on_random_seeds(seed):
    assert () in _assert_monomials_match_reference(seed)


# Two paths meet at one seed: the square mu_1 mu_3 = mu_3 mu_1 in A3, and
# prime toggles colliding along different paths in a rank-2 chart named x, x'.
TWINS = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("x", "x'"))


@pytest.mark.parametrize("seed,depth", [(A3, 4), (TWINS, 5)], ids=["A3-4", "twins-5"])
def test_check_invariance_matches_chained_where_paths_merge(seed, depth):
    assert check_invariance(seed, depth) == chained_invariance(seed, depth)


@pytest.mark.parametrize("seed,depth,pullbacks,failures", [
    (A3, 3, 0, 0), (A3, 6, 0, 0), (MARKOV, 6, 0, 0), (C3, 4, 29, 69), (M2, 4, 7, 18)],
    ids=["a3-3", "a3-6", "markov-6", "c3-4", "m2-4"])
def test_check_invariance_pulls_back_once_per_seed(monkeypatch, seed, depth,
                                                   pullbacks, failures):
    calls = []
    counted_pullback = forms_module.pullback

    def counted(form, target, k):
        calls.append(k)
        return counted_pullback(form, target, k)

    monkeypatch.setattr(forms_module, "pullback", counted)
    report = check_invariance(seed, depth)
    assert sum(not ok for _, ok in report) == failures
    assert len(calls) == pullbacks


# ---------------------------------------------------------------------------
# charts: a form reads its seed's matrix and names, nothing else
# ---------------------------------------------------------------------------

# mu_1 mu_2 and mu_2 mu_1 of Markov: two clusters on one chart, the matrix
# of MARKOV and the names x1' x2' x3
T1, T2 = MARKOV.mutated(1).mutated(2), MARKOV.mutated(2).mutated(1)
ON_T1 = "x1'^-1*x3^-1 ; x1' ; x3\n"
OTHER_MATRIX = Seed.initial(
    ExchangeMatrix(3, 3, tuple(tuple(-b for b in row) for row in T1.matrix.rows)), T1.names)
OTHER_NAMES = Seed.initial(T1.matrix, ("y1", "y2", "x3"))


def test_seeds_on_one_chart_share_their_forms():
    assert T1.gvectors != T2.gvectors
    assert (T1.matrix, T1.names) == (T2.matrix, T2.names)
    assert forms_equal(wp_form(T1), wp_form(T2))
    assert wp_form(T1).plus(wp_form(T2)) == wp_form(T2).scaled(2)
    form = parse_form_file(ON_T1, T1)
    assert reduce_to_chart(form, T2).coeffs == reduce_to_chart(form, T1).coeffs
    assert forms_equal(pullback(wp_form(T1.mutated(3)), T2, 3), wp_form(T2))
    across = regularize_at(T2, VanishingPattern(T1, frozenset({1})))
    own = regularize_at(T2, VanishingPattern(T2, frozenset({1})))
    assert emit_form_file(across) == emit_form_file(own)


@pytest.mark.parametrize("other", [OTHER_MATRIX, OTHER_NAMES],
                         ids=["other-matrix", "other-names"])
def test_forms_on_another_chart_are_rejected(other):
    common = "^chart mismatch: pull back to a common chart first$"
    with pytest.raises(ValueError, match=common):
        forms_equal(wp_form(T1), wp_form(other))
    with pytest.raises(ValueError, match=common):
        wp_form(T1).plus(wp_form(other))
    with pytest.raises(ValueError,
                       match="^chart mismatch: form was built over a different seed$"):
        reduce_to_chart(parse_form_file(ON_T1, T1), other)
    with pytest.raises(ValueError, match="^chart mismatch: form is not on a mutation of "
                                         "this seed at direction 3$"):
        pullback(wp_form(T1.mutated(3)), other, 3)
    with pytest.raises(ValueError, match="^pattern was built over a different seed$"):
        regularize_at(other, VanishingPattern(T1, frozenset({1})))


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

def ones(seed):
    return {nm: 1 for nm in seed.names}


def test_degree_markov():
    assert form_degree(wp_form(MARKOV), ones(MARKOV)) == -2


def test_degree_affine():
    assert form_degree(wp_form(AFFINE), ones(AFFINE)) == -2


def test_degree_polynomial_term():
    f = ChartForm(AFFINE, {(1, 2): rf(AFFINE, "x0*x1")})
    assert form_degree(f, ones(AFFINE)) == 2


def test_degree_zero_form_rejected():
    with pytest.raises(ValueError):
        form_degree(ChartForm(AFFINE, {}), ones(AFFINE))


def test_degree_inhomogeneous():
    f = ChartForm(SL2, {(1, 2): rf(SL2, "1"), (1, 3): rf(SL2, "x")})
    with pytest.raises(Inhomogeneous):
        form_degree(f, ones(SL2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_chart_form_has_degree_minus_two_under_every_weighting(data):
    # every term W_ij f_i^-1 f_j^-1 df_i df_j has degree -w_i - w_j + w_i +
    # w_j - 2, so grade can meet no inhomogeneous chart form
    seed = data.draw(small_seeds(max_frozen=2))
    for k in data.draw(st.lists(st.integers(1, seed.matrix.m), max_size=3)):
        seed = seed.mutated(k)
    weights = {nm: data.draw(st.integers(-5, 5)) for nm in seed.names}
    form = wp_form(seed)
    if form.coeffs:
        assert form_degree(form, weights) == -2
    else:
        with pytest.raises(ValueError, match="the zero form has no degree"):
            form_degree(form, weights)


def test_degree_nontrivial_weights():
    f = ChartForm(AFFINE, {(1, 2): rf(AFFINE, "x0^2/x1")})
    assert form_degree(f, {"x0": 1, "x1": 2}) == 1   # (2-2) + 1 + 2 - 2


# ---------------------------------------------------------------------------
# the printed global candidate
# ---------------------------------------------------------------------------

CANDIDATE_TEXT = """# candidate globally regular expression
gen x2 = (x1^2 + 1)/x0
gen x3 = ((x1^2 + 1)^2 + x0^2)/(x0^2*x1)
x0*x3 ; x1 ; x2
-1/2*x1*x3 ; x0 ; x2
-1/2*x0*x2 ; x1 ; x3
x1*x2 ; x1 ; x2
"""


def test_candidate_reduces_to_half_wp():
    form = parse_form_file(CANDIDATE_TEXT, AFFINE, "candidate.form")
    reduced = reduce_to_chart(form, AFFINE)
    assert reduced.coeffs == {(1, 2): rf(AFFINE, "1/(x0*x1)")}
    w = wp_form(AFFINE)
    assert not forms_equal(reduced, w)
    assert form_difference(w, reduced).coeffs == {(1, 2): rf(AFFINE, "1/(x0*x1)")}


# ---------------------------------------------------------------------------
# form files
# ---------------------------------------------------------------------------

def test_chart_form_file_round_trip():
    w = wp_form(A3)
    text = emit_form_file(w)
    assert text == "x13^-1*x14^-1 ; x13 ; x14\nx14^-1*x15^-1 ; x14 ; x15\n"
    form = parse_form_file(text, A3, "wp.form")
    assert forms_equal(reduce_to_chart(form, A3), w)
    assert emit_form_file(parse_form_file(text, A3, "wp.form")) == text


def test_symbolic_form_file_round_trip():
    form = parse_form_file(CANDIDATE_TEXT, AFFINE, "candidate.form")
    text = emit_form_file(form)
    again = parse_form_file(text, AFFINE, "candidate.form")
    assert emit_form_file(again) == text
    assert forms_equal(reduce_to_chart(again, AFFINE),
                       reduce_to_chart(form, AFFINE))


def test_form_file_gen_referencing_earlier_gen():
    text = "gen x2 = (x1^2 + 1)/x0\ngen y = x2^2\n1 ; x0 ; y\n"
    form = parse_form_file(text, AFFINE, "f.form")
    assert form.gens["y"] == (rf(AFFINE, "(x1^2 + 1)/x0") ** 2).as_laurent()


@pytest.mark.parametrize("text,fragment", [
    ("1 ; x0\n", "term"),
    ("1 ; x0 ; x9\n", "unknown"),
    ("gen g = (x0 + 1)/(x1 + 1)\n1 ; x0 ; g\n", "laurent"),
    ("gen g = h + 1\ngen h = x0\n", "unknown"),
    ("gen x0 = x1\n", "duplicate"),
    ("x0 + ; x0 ; x1\n", "expected"),
    ("gen g x0\n", "gen"),
])
def test_form_file_errors(text, fragment):
    with pytest.raises(FormFileError) as exc:
        parse_form_file(text, AFFINE, "bad.form")
    assert "bad.form" in str(exc.value)
    assert fragment.lower() in str(exc.value).lower()


@pytest.mark.parametrize("text,message", [
    ("gen i = x0\n", "bad.form:1: variable name 'i' is reserved for the imaginary unit"),
    ("gen 2x = x0\n", "bad.form:1: invalid variable name: '2x'"),
    ("gen g = x0\ngen g = x1\n", "bad.form:2: duplicate variable name: 'g'"),
])
def test_form_file_gen_name_errors(text, message):
    with pytest.raises(FormFileError) as exc:
        parse_form_file(text, AFFINE, "bad.form")
    assert str(exc.value) == message


def test_form_file_comments_and_blanks():
    text = "# header\n\n2/(x0*x1) ; x0 ; x1   # trailing\n"
    form = parse_form_file(text, AFFINE, "c.form")
    assert forms_equal(reduce_to_chart(form, AFFINE), wp_form(AFFINE))


def test_form_file_error_line_numbers():
    with pytest.raises(FormFileError) as exc:
        parse_form_file("# fine\n1 ; x0 ; zz\n", AFFINE, "f.form")
    assert exc.value.line == 2
