"""Chart 2-forms, symbolic reduction, pullback, invariance, grading, files."""

import itertools
import random
from pathlib import Path

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
from clusterwp.laurent import Inhomogeneous, LaurentPoly, RationalFn, VarTable
from clusterwp.seeds import ExchangeMatrix, Seed, parse_seed_file

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
def small_seeds(draw):
    """B = S D on the mutable block (S skew-symmetric, D a positive
    diagonal), entries in -2..2, with or without one frozen column."""
    m = draw(st.integers(1, 3))
    frozen = draw(st.integers(0, 1))
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


# Two paths meet at one seed: the square mu_1 mu_3 = mu_3 mu_1 in A3, and
# prime toggles colliding along different paths in a rank-2 chart named x, x'.
TWINS = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("x", "x'"))


@pytest.mark.parametrize("seed,depth", [(A3, 4), (TWINS, 5)], ids=["A3-4", "twins-5"])
def test_check_invariance_matches_chained_where_paths_merge(seed, depth):
    assert check_invariance(seed, depth) == chained_invariance(seed, depth)


@pytest.mark.parametrize("seed,depth,pullbacks,failures", [
    (A3, 3, 17, 0), (A3, 6, 77, 0), (MARKOV, 6, 189, 0), (C3, 4, 32, 69), (M2, 4, 8, 18)],
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


def test_form_file_comments_and_blanks():
    text = "# header\n\n2/(x0*x1) ; x0 ; x1   # trailing\n"
    form = parse_form_file(text, AFFINE, "c.form")
    assert forms_equal(reduce_to_chart(form, AFFINE), wp_form(AFFINE))


def test_form_file_error_line_numbers():
    with pytest.raises(FormFileError) as exc:
        parse_form_file("# fine\n1 ; x0 ; zz\n", AFFINE, "f.form")
    assert exc.value.line == 2
