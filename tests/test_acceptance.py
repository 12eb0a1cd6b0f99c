"""End-to-end acceptance checks for the four worked examples.

One test per criterion; each prints a single verdict line (visible with
``pytest -s`` or in the captured-output section on failure) and asserts
its own wall-clock budget.  All comparisons are exact — Gaussian-rational
arithmetic throughout, no tolerances.

Expected values are the frozen fixtures used across the unit suites:
chart-form coefficient tables, the 14/9 hexagon census, tangent
dimensions 4 and 3, the (1,2,3) forced vanishing cycle, and the
candidate expression whose chart reduction lands on half the invariant
form.  Each was derived by hand (see the unit-test module docstrings for
the derivations) before any of the code below existed.
"""

import random
import time
from fractions import Fraction

import pytest

from clusterwp.catalog import catalog
from clusterwp.exact import GaussianRational
from clusterwp.exprs import parse_expression
from clusterwp.forms import (
    ChartForm,
    check_invariance,
    emit_form_file,
    form_degree,
    form_difference,
    forms_equal,
    parse_form_file,
    reduce_to_chart,
    wp_form,
)
from clusterwp.laurent import LaurentPoly, RationalFn, VarTable
from clusterwp.regularity import (
    AlgebraPoint,
    HypothesisViolated,
    VanishingPattern,
    constant_vanishing_oracle,
    deep_witness,
    find_regularizing_seed,
    regularize_at,
    tangent_dimension,
    trace_vanishing_cycle,
    verify_point,
)
from clusterwp.seeds import (
    ExchangeMatrix,
    NotFoundWithinBudget,
    Seed,
    explore,
    find_skew_symmetrizer,
    mutate_matrix,
)


def _verdict(number, text):
    print(f"ACCEPTANCE {number:02d} PASS — {text}")


def _expected_chart_form(seed, slot_exprs):
    table = VarTable(seed.names)
    return ChartForm(seed, {slot: parse_expression(text, table)
                            for slot, text in slot_exprs.items()})


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"criterion exceeded its {self.seconds}s budget: {elapsed:.1f}s")
        return False


# ---------------------------------------------------------------------------


def test_criterion_01_chart_forms_match_fixtures():
    with _Budget(1):
        expected = {
            "sl2": {(1, 2): "1/(x*c1)", (1, 3): "1/(x*c2)"},
            "a3": {(1, 2): "1/(x13*x14)", (2, 3): "1/(x14*x15)"},
            "affine-a11": {(1, 2): "2/(x0*x1)"},
            "markov": {(1, 2): "2/(x1*x2)", (1, 3): "-2/(x1*x3)",
                       (2, 3): "2/(x2*x3)"},
        }
        for key, slots in expected.items():
            seed = catalog(key).seed
            form = wp_form(seed)
            want = _expected_chart_form(seed, slots)
            assert set(form.coeffs) == set(want.coeffs), key
            assert forms_equal(form, want), key
    _verdict(1, "chart 2-forms equal the four fixture coefficient tables")


def test_criterion_02_alternate_expressions_reduce_to_the_form():
    with _Budget(1):
        sl2 = catalog("sl2").seed
        alt = parse_form_file(
            "gen x' = (c1*c2 + 1)/x\n1/(c1*c2) ; x ; x'\n", sl2)
        assert forms_equal(reduce_to_chart(alt, sl2), wp_form(sl2))

        a3 = catalog("a3").seed
        alt = parse_form_file(
            "gen x24 = (x14 + 1)/x13\n"
            "gen x46 = (x14 + 1)/x15\n"
            "x14^-1 ; x13 ; x24\n"
            "x14^-1 ; x46 ; x15\n", a3)
        assert forms_equal(reduce_to_chart(alt, a3), wp_form(a3))
    _verdict(2, "mixed-chart alternate expressions reduce to the chart form")


def test_criterion_03_invariance_under_mutation():
    with _Budget(60):
        for key, depth, count in [("sl2", 3, 3), ("a3", 3, 39),
                                  ("affine-a11", 3, 14), ("markov", 2, 12)]:
            report = check_invariance(catalog(key).seed, depth)
            assert len(report) == count, key
            bad = [ks for ks, ok in report if not ok]
            assert bad == [], (key, bad)
    _verdict(3, "all pullbacks to depth 3 (markov: 2) return the same form")


def test_criterion_04_hexagon_census():
    with _Budget(5):
        seed = Seed.initial(
            ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0))),
            ("x13", "x14", "x15"))
        result = explore(seed, max_seeds=100, max_depth=8)
        assert len(result.seeds) == 14
        assert result.n_variables == 9
        assert not result.truncated
    _verdict(4, "rank-3 chain census: 14 clusters over 9 variables, complete")


def test_criterion_05_tangent_dimensions():
    with _Budget(1):
        entry = catalog("a3")
        assert tangent_dimension(entry.presentation, entry.points["deep"]) == 4
        generic = AlgebraPoint(
            {"x13": 1, "x14": 1, "x15": 1, "x24": 2, "x35": 2, "x46": 2},
            entry.presentation)
        assert tangent_dimension(entry.presentation, generic) == 3
    _verdict(5, "tangent dimension is 4 at the deep point, 3 generically")


def test_criterion_06_local_regularization():
    with _Budget(1):
        a3 = catalog("a3").seed
        pattern = VanishingPattern(a3, frozenset({1, 3}))
        form = regularize_at(a3, pattern, namer=catalog("a3").namer)
        vanishing_names = {"x13", "x15"}
        for coeff, _, _ in form.terms:
            assert not (coeff.den.variables_used() & vanishing_names)
        assert forms_equal(reduce_to_chart(form, a3), wp_form(a3))

        markov = catalog("markov").seed
        with pytest.raises(HypothesisViolated) as exc:
            regularize_at(markov, VanishingPattern(markov, frozenset({1, 2})))
        assert exc.value.pair == (1, 2)
    _verdict(6, "rewrite clears vanishing denominators; adjacent pair rejected")


def test_criterion_07_markov_obstruction():
    with _Budget(10):
        entry = catalog("markov")
        ones = {name: 1 for name in entry.seed.names}
        assert form_degree(wp_form(entry.seed), ones) == -2

        pattern = VanishingPattern(entry.seed, frozenset({1, 2, 3}))
        assert trace_vanishing_cycle(pattern, 1, 2) == (1, 2, 3)

        with pytest.raises(NotFoundWithinBudget):
            find_regularizing_seed(entry.seed,
                                   constant_vanishing_oracle({1, 2, 3}),
                                   max_depth=3, max_seeds=200)
    _verdict(7, "degree -2; forced cycle (1,2,3); no regularizing chart to depth 3")


def test_criterion_08_distinguished_points():
    with _Budget(5):
        affine = catalog("affine-a11")
        for name in ("p0", "p1", "p2", "p3"):
            assert verify_point(affine.points[name]) == [], name
        report = deep_witness(affine.points["p0"], affine.exploration)
        assert report.verdict == "deep-relative"

        a3 = catalog("a3")
        assert verify_point(a3.points["deep"]) == []
        report = deep_witness(a3.points["deep"], a3.exploration)
        assert report.verdict == "deep"
        assert report.certified
    _verdict(8, "staircase points verify; witnesses: relative (window) and absolute")


def test_criterion_09_candidate_expression_is_half_the_form():
    with _Budget(5):
        affine = catalog("affine-a11").seed
        candidate = parse_form_file(
            "gen x2 = (x1^2 + 1)/x0\n"
            "gen x3 = ((x1^2 + 1)^2 + x0^2)/(x0^2*x1)\n"
            "x0*x3 ; x1 ; x2\n"
            "-1/2*x1*x3 ; x0 ; x2\n"
            "-1/2*x0*x2 ; x1 ; x3\n"
            "x1*x2 ; x1 ; x2\n", affine)
        reduced = reduce_to_chart(candidate, affine)
        base = wp_form(affine)
        assert not forms_equal(reduced, base)

        diff = form_difference(base, reduced)
        table = VarTable(affine.names)
        assert set(diff.coeffs) == {(1, 2)}
        assert diff.coeffs[(1, 2)] == parse_expression("1/(x0*x1)", table)

        again = reduce_to_chart(candidate, affine)
        assert emit_form_file(again) == emit_form_file(reduced)
        assert forms_equal(reduced, base.scaled(Fraction(1, 2)))
    _verdict(9, "candidate reduces to half the form; difference is dx0^dx1/(x0*x1)")


# ---------------------------------------------------------------------------
# criterion 10: randomized structural properties, >= 100 instances each


def _random_exchange_matrix(rng):
    m = rng.randint(1, 4)
    extra = rng.randint(0, 2)
    skew = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            skew[i][j] = rng.randint(-2, 2)
            skew[j][i] = -skew[i][j]
    d = [rng.randint(1, 3) for _ in range(m)]
    rows = tuple(
        tuple(skew[i][j] * d[j] for j in range(m))
        + tuple(rng.randint(-3, 3) for _ in range(extra))
        for i in range(m))
    return ExchangeMatrix(m, m + extra, rows)


def _random_laurent(rng, table, names):
    poly = LaurentPoly.zero(table)
    for _ in range(rng.randint(1, 3)):
        exps = {nm: rng.randint(-2, 2)
                for nm in rng.sample(names, rng.randint(0, 2))}
        poly = poly + rng.randint(-3, 3) * LaurentPoly.monomial(table, exps)
    return poly


def _random_terms(rng, table, names, count):
    terms = []
    for _ in range(count):
        coeff = _random_laurent(rng, table, names)
        g, h = rng.sample(names, 2)
        terms.append((RationalFn(coeff), g, h))
    return terms


def test_criterion_10_randomized_structural_properties():
    rng = random.Random(20260823)
    with _Budget(30):
        for _ in range(100):   # mutation is an involution
            matrix = _random_exchange_matrix(rng)
            k = rng.randint(1, matrix.m)
            assert mutate_matrix(mutate_matrix(matrix, k), k) == matrix

        for _ in range(100):   # the minimal symmetrizer is mutation-invariant
            matrix = _random_exchange_matrix(rng)
            k = rng.randint(1, matrix.m)
            assert (find_skew_symmetrizer(mutate_matrix(matrix, k))
                    == find_skew_symmetrizer(matrix))

        sl2 = catalog("sl2").seed
        xprime = parse_expression("(c1*c2 + 1)/x", VarTable(sl2.names)).as_laurent()
        gens = {"x'": xprime}
        table = VarTable(sl2.names + ("x'",))
        names = list(table.names)
        from clusterwp.forms import SymbolicForm

        for _ in range(100):   # reduction is linear over the coefficients
            f_terms = _random_terms(rng, table, names, rng.randint(1, 3))
            g_terms = _random_terms(rng, table, names, rng.randint(1, 3))
            scale = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
            combined = ([(c * scale, g, h) for c, g, h in f_terms]
                        + g_terms)
            lhs = reduce_to_chart(SymbolicForm(sl2, gens, combined), sl2)
            rhs = reduce_to_chart(SymbolicForm(sl2, gens, f_terms), sl2) \
                .scaled(scale) \
                .plus(reduce_to_chart(SymbolicForm(sl2, gens, g_terms), sl2))
            assert forms_equal(lhs, rhs)

        for _ in range(100):   # swapping a wedge factor negates the reduction
            coeff, g, h = _random_terms(rng, table, names, 1)[0]
            fwd = reduce_to_chart(SymbolicForm(sl2, gens, [(coeff, g, h)]), sl2)
            rev = reduce_to_chart(SymbolicForm(sl2, gens, [(-coeff, h, g)]), sl2)
            assert forms_equal(fwd, rev)

        a3_table = VarTable(("x13", "x14", "x15"))
        a3_names = list(a3_table.names)
        checked = 0
        while checked < 100:   # equality is cross-multiplication
            num = _random_laurent(rng, a3_table, a3_names)
            den = _random_laurent(rng, a3_table, a3_names)
            mult = _random_laurent(rng, a3_table, a3_names)
            bump = _random_laurent(rng, a3_table, a3_names)
            if den.is_zero or mult.is_zero:
                continue
            base = RationalFn(num, den)
            assert base == RationalFn(num * mult, den * mult)
            if not bump.is_zero:
                assert base != RationalFn(num * mult + bump, den * mult)
            checked += 1
    _verdict(10, "involution, symmetrizer, linearity, antisymmetry, equality x100")
