"""Points, propagation, vanishing patterns, regularization, tangent spaces."""

import functools
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterwp import regularity as regularity_module
from clusterwp.catalog import CATALOG_KEYS, catalog
from clusterwp.exact import GaussianRational
from clusterwp.forms import forms_equal, reduce_to_chart, wp_form
from clusterwp.laurent import LaurentPoly, VarTable
from clusterwp.regularity import (
    AlgebraPoint,
    HypothesisViolated,
    NoForcedSuccessor,
    PointFileError,
    VanishingPattern,
    _emit_point,
    _relation_text,
    adjacent_vanishing_pair,
    constant_vanishing_oracle,
    deep_witness,
    find_regularizing_seed,
    parse_point_file,
    point_vanishing_oracle,
    propagate_point,
    regularize_at,
    tangent_dimension,
    trace_vanishing_cycle,
    vanishing_pattern,
    verify_point,
)
from clusterwp.seeds import (
    ExchangeMatrix,
    ExchangeRelation,
    Exploration,
    NotFoundWithinBudget,
    Presentation,
    Seed,
    acyclic_presentation,
    emit_seed_file,
    explore,
    is_acyclic,
    parse_seed_file,
)
from test_exact import reference_rank
from test_seeds import G2_FROZEN, acyclic_seeds

I = GaussianRational(0, 1)

SL2 = Seed.initial(ExchangeMatrix(1, 3, ((0, 1, 1),)), ("x", "c1", "c2"))
A3 = Seed.initial(
    ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0))), ("x13", "x14", "x15"))
AFFINE = Seed.initial(ExchangeMatrix(2, 2, ((0, 2), (-2, 0))), ("x0", "x1"))
MARKOV = Seed.initial(
    ExchangeMatrix(3, 3, ((0, 2, -2), (-2, 0, 2), (2, -2, 0))), ("x1", "x2", "x3"))


def affine_chain():
    """Charts {x0,x1} -> {x2,x1} -> {x2,x3} -> {x4,x3} by directed walking."""
    s0 = AFFINE
    s1 = s0.mutated(1, "x2")
    s2 = s1.mutated(2, "x3")
    s3 = s2.mutated(1, "x4")
    return Exploration([s0, s1, s2, s3], truncated=True)


# ---------------------------------------------------------------------------
# verify_point
# ---------------------------------------------------------------------------

def test_verify_affine_deep_point():
    e = affine_chain()
    p = AlgebraPoint({"x0": I, "x1": 0, "x2": -I, "x3": 0}, e)
    assert verify_point(p) == []


def test_verify_sl2_deep_point():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"x": 0, "x'": 0, "c1": 2, "c2": Fraction(-1, 2)}, pres)
    assert verify_point(p) == []


def test_verify_all_ones_violation():
    e = affine_chain()
    p = AlgebraPoint({"x0": 1, "x1": 1, "x2": 1, "x3": 1}, e)
    issues = verify_point(p)
    assert issues
    assert any("x2" in line for line in issues)


def test_verify_frozen_zero():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"c1": 0}, pres)
    issues = verify_point(p)
    assert len(issues) == 1 and "c1" in issues[0]


def test_verify_requires_context():
    with pytest.raises(ValueError):
        verify_point(AlgebraPoint({"x": 1}, None))


def test_verify_partial_assignment_skips_unevaluable():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"x": 0}, pres)      # relation not fully assigned
    assert verify_point(p) == []


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_affine_extends_one_step():
    e = affine_chain()
    p = AlgebraPoint({"x0": I, "x1": 0, "x2": -I, "x3": 0}, e)
    q, issues = propagate_point(p, e)
    assert issues == []
    assert q.assignment["x4"] == I          # (x3^2+1)/x2 = 1/(-i)
    assert "x5" not in q.assignment         # 0 = 0 determines nothing


def test_propagate_detects_inconsistency():
    e = affine_chain()
    p = AlgebraPoint({"x0": 1, "x1": 0, "x2": 5}, e)
    q, issues = propagate_point(p, e)
    assert issues
    assert any("x2" in line for line in issues)


def test_propagate_generic_full():
    e = explore(SL2, max_seeds=10, max_depth=4)
    p = AlgebraPoint({"x": 1, "c1": 1, "c2": 1}, e)
    q, issues = propagate_point(p, e)
    assert issues == []
    assert q.assignment["x'"] == 2


def test_propagate_zero_requires_zero_product():
    e = affine_chain()
    # x1 = 0 but the adjacent exchange product is 1: inconsistent
    p = AlgebraPoint({"x2": 1, "x3": 0, "x4": 2}, e)
    q, issues = propagate_point(p, e)
    assert issues
    assert any("x3" in line or "x4" in line for line in issues)


# ---------------------------------------------------------------------------
# propagation and verification against the relation-by-relation loops
# ---------------------------------------------------------------------------

def _reference_value(rel, a):
    one = GaussianRational.of(1)
    try:
        return (prod([a[name] ** e for name, e in rel.pos], start=one)
                + prod([a[name] ** e for name, e in rel.neg], start=one))
    except KeyError:
        return None


# values with denominators up to 10**6, non-real parts and zeros
_BIG_PARTS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
_BIG_VALUES = st.one_of(st.just(GaussianRational(0)), _BIG_PARTS.map(GaussianRational),
                        st.builds(GaussianRational, _BIG_PARTS, _BIG_PARTS))
_FACTORS = st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 3)), max_size=3,
                    unique_by=lambda factor: factor[0]).map(tuple)
_Q = GaussianRational(Fraction(1, 3), Fraction(-2, 7))


@given(_FACTORS, _FACTORS, st.fixed_dictionaries(dict.fromkeys("abc", _BIG_VALUES)))
# P+ and P- cancel: the sum is the canonical zero (0, 0, 1)
@example((("a", 1),), (("b", 1),), {"a": _Q, "b": -_Q, "c": GaussianRational(0)})
# monomials over different denominators, one of them non-real
@example((("a", 2),), (("b", 1), ("c", 3)),
         {"a": GaussianRational(Fraction(1, 2)), "b": GaussianRational(Fraction(1, 3)),
          "c": GaussianRational(Fraction(2, 5), Fraction(-1, 5))})
@settings(max_examples=150, deadline=None)
def test_exchange_value_matches_the_reference(pos, neg, a):
    rel = ExchangeRelation(0, 1, "f", None, pos, neg, 0)
    got, want = regularity_module._exchange_value(rel, a), _reference_value(rel, a)
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)


def reference_verify_point(point):
    """verify_point as a plain loop: every relation evaluated on its own."""
    if point.context is None:
        raise ValueError("point has no relation context to verify against")
    issues = []
    a = point.assignment
    for name in point.context.frozen_names:
        v = a.get(name)
        if v is not None and not v:
            issues.append(f"frozen variable {name} must be nonzero")
    if isinstance(point.context, Presentation):
        for rel in point.context.relations:
            if not rel.variables_used() <= set(a):
                continue
            value = rel.evaluate(a)
            if value:
                issues.append(f"{rel.to_expr()} = {value}")
    else:
        for rel in point.context.relations():
            if rel.partner is None or rel.var not in a or rel.partner not in a:
                continue
            rhs = _reference_value(rel, a)
            if rhs is None:
                continue
            lhs = a[rel.var] * a[rel.partner]
            if lhs != rhs:
                issues.append(f"{_relation_text(rel)} violated: {lhs} != {rhs}")
    return issues


def reference_propagate_point(point, exploration):
    """propagate_point as a plain fixpoint: every relation evaluated afresh
    in every pass until a pass assigns nothing."""
    a = dict(point.assignment)
    issues = []
    reported = set()

    def report(key, text):
        if key not in reported:
            reported.add(key)
            issues.append(text)

    changed = True
    while changed:
        changed = False
        for rel in exploration.relations():
            fv = a.get(rel.var)
            if fv is None:
                continue
            rhs = _reference_value(rel, a)
            if rhs is None:
                continue
            if not fv:
                if rhs:
                    report(("zero", rel.seed_index, rel.direction),
                           f"{rel.var} = 0 but {_relation_text(rel)} "
                           f"gives product {rhs}")
                continue
            if rel.partner is None:
                continue
            val = rhs * fv.inverse()
            cur = a.get(rel.partner)
            if cur is None:
                a[rel.partner] = val
                changed = True
            elif cur != val:
                report(("conflict", rel.partner),
                       f"{rel.partner} = {cur} conflicts with "
                       f"{_relation_text(rel)} giving {val}")
    return AlgebraPoint(a, exploration), issues


GOLDEN = Path(__file__).parent / "golden"
ORACLE_KEYS = ("sl2", "a3", "affine-a11", "markov", "g2-frozen", "markov-file-40")
VALUES = (1, 2, -1, I, GaussianRational(1, 1), Fraction(1, 2), Fraction(-2, 3))


@functools.cache
def oracle_context(key):
    """The exploration named ``key`` and, for an acyclic start, its
    presentation: the catalog's, g2-frozen's, or a Markov file seed's
    truncated at 40 seeds."""
    if key == "g2-frozen":
        seed = parse_seed_file((GOLDEN / "g2-frozen.seed").read_text())
        return explore(seed), acyclic_presentation(seed)
    if key == "markov-file-40":
        seed = parse_seed_file(emit_seed_file(catalog("markov").seed))
        return explore(seed, max_seeds=40), None
    entry = catalog(key)
    return entry.exploration, entry.presentation


@st.composite
def partial_points(draw):
    """A context and a random partial point: each chosen name keeps the value
    a generic point propagates to it, or is set to zero, moved by one, or
    drawn afresh (so the point may conflict), in a random insertion order."""
    key = draw(st.sampled_from(ORACLE_KEYS))
    exploration, presentation = oracle_context(key)
    context = exploration if presentation is None else draw(
        st.sampled_from((exploration, presentation)))
    start = {nm: draw(st.sampled_from(VALUES)) for nm in exploration.seeds[0].names}
    generic, _ = reference_propagate_point(AlgebraPoint(start, exploration), exploration)
    names = list(dict.fromkeys(nm for s in exploration.seeds for nm in s.names))
    if context is presentation:
        names = list(presentation.table.names)
    values = {}
    for name in draw(st.lists(st.sampled_from(names), unique=True)):
        v = generic.assignment.get(name)
        how = draw(st.sampled_from(("keep", "keep", "keep", "zero", "shift", "other")))
        if v is None or how == "other":
            v = draw(st.sampled_from((0,) + VALUES))
        elif how == "zero":
            v = 0
        elif how == "shift":
            v = v + 1
        values[name] = v
    return exploration, AlgebraPoint(values, context)


@settings(max_examples=200, deadline=None)
@given(partial_points())
def test_propagation_and_verification_match_the_relation_by_relation_loops(case):
    exploration, point = case
    assert verify_point(point) == reference_verify_point(point)
    if isinstance(point.context, Presentation):
        return
    full, issues = propagate_point(point, exploration)
    want, want_issues = reference_propagate_point(point, exploration)
    assert list(full.assignment.items()) == list(want.assignment.items())
    assert issues == want_issues
    assert verify_point(full) == reference_verify_point(want)


@pytest.fixture
def evaluations(monkeypatch):
    """The binomial numbers of every exchange evaluation, in call order."""
    calls = []
    evaluate = regularity_module._exchange_value
    monkeypatch.setattr(regularity_module, "_exchange_value",
                        lambda rel, a: calls.append(rel.binomial) or evaluate(rel, a))
    return calls


# the hexagon's 15 crossing pairs of diagonals share 12 Ptolemy binomials:
# 1 + d for each long diagonal d (two pairs each), and nine sums of two
# short diagonals' monomials
@pytest.mark.parametrize("key,binomials,relations", [
    ("a3", 12, 42), ("markov", 21, 30), ("affine-a11", 8, 14),
])
def test_each_binomial_is_evaluated_at_most_once_per_call(evaluations, key,
                                                          binomials, relations):
    entry = catalog(key)
    e = entry.exploration
    assert (len({rel.binomial for rel in e.relations()}), len(e.relations())) == (
        binomials, relations)
    root = e.seeds[0].names
    starts = [dict.fromkeys(root, 1), dict.fromkeys(root, 0), {root[0]: 2},
              *(p.assignment for p in entry.points.values())]
    for values in starts:
        evaluations.clear()
        full, _ = propagate_point(AlgebraPoint(values, e), e)
        assert len(evaluations) == len(set(evaluations)) <= binomials
        evaluations.clear()
        verify_point(full)
        assert len(evaluations) == len(set(evaluations)) <= binomials


def test_a3_generic_point_evaluates_every_binomial_once(evaluations):
    e = catalog("a3").exploration
    point = AlgebraPoint({"x13": 1, "x14": 1, "x15": 1}, e)
    full, issues = propagate_point(point, e)
    assert issues == [] and len(full.assignment) == 9
    assert sorted(evaluations) == list(range(12))
    evaluations.clear()
    assert verify_point(full) == []
    assert sorted(evaluations) == list(range(12))


@pytest.mark.parametrize("key,equations,relations", [
    ("sl2", 1, 2), ("a3", 15, 42), ("affine-a11", 8, 14), ("markov", 21, 30),
])
def test_each_exploration_indexes_its_distinct_equations(key, equations, relations):
    e = catalog(key).exploration
    firsts, numbers = e._equations
    assert (len(firsts), len(numbers)) == (equations, relations)
    for rel, n in zip(e.relations(), numbers):
        first = firsts[n]
        assert first.binomial == rel.binomial
        assert {first.var, first.partner} == {rel.var, rel.partner}
    # numbered in order of first appearance, each first copy kept
    assert [numbers.index(n) for n in range(equations)] == [
        e.relations().index(first) for first in firsts]


def test_the_equation_index_is_built_on_first_use():
    e = explore(A3)
    fresh = Exploration(e.seeds, e.truncated)
    assert "_equations" not in vars(e) and "_equations" not in vars(fresh)
    # propagation tells directed equations apart by binomial and f alone
    full, _ = propagate_point(AlgebraPoint({"x13": 1, "x14": 1, "x15": 1}, fresh), fresh)
    assert "_equations" not in vars(fresh)
    verify_point(full)
    assert "_equations" in vars(fresh)


@pytest.fixture
def scalar_ops(monkeypatch):
    """Counts of the Q(i) products and inverses formed outside the exchange
    evaluations (whose own products the ``evaluations`` fixture covers)."""
    counts = {"mul": 0, "inverse": 0}
    inside = []
    evaluate = regularity_module._exchange_value

    def evaluate_uncounted(rel, a):
        inside.append(rel)
        try:
            return evaluate(rel, a)
        finally:
            inside.pop()

    def counted(key, op):
        original = getattr(GaussianRational, op)

        def method(*args):
            if not inside:
                counts[key] += 1
            return original(*args)
        monkeypatch.setattr(GaussianRational, op, method)

    monkeypatch.setattr(regularity_module, "_exchange_value", evaluate_uncounted)
    counted("mul", "__mul__")
    counted("inverse", "inverse")
    return counts


def test_a3_verify_forms_one_product_per_equation(scalar_ops):
    e = catalog("a3").exploration
    full, issues = propagate_point(AlgebraPoint({"x13": 1, "x14": 1, "x15": 1}, e), e)
    assert issues == [] and len(full.assignment) == 9
    # the 30 directed equations each form P/f once: one inverse, one product
    assert scalar_ops == {"mul": 30, "inverse": 30}
    scalar_ops.update(mul=0, inverse=0)
    assert verify_point(full) == []
    assert scalar_ops == {"mul": 15, "inverse": 0}


@pytest.mark.parametrize("key", ["sl2", "a3", "affine-a11", "markov"])
def test_point_checks_work_once_per_equation(scalar_ops, key):
    entry = catalog(key)
    e = entry.exploration
    firsts, numbers = e._equations
    directed = {(n, rel.var) for rel, n in zip(e.relations(), numbers)
                if rel.partner is not None}
    root = e.seeds[0].names
    starts = [dict.fromkeys(root, 1), dict.fromkeys(root, 0), {root[0]: 2},
              *(p.assignment for p in entry.points.values())]
    for values in starts:
        scalar_ops.update(mul=0, inverse=0)
        full, _ = propagate_point(AlgebraPoint(values, e), e)
        assert scalar_ops["mul"] == scalar_ops["inverse"] <= len(directed)
        scalar_ops.update(mul=0, inverse=0)
        verify_point(full)
        assert scalar_ops == {"mul": sum(
            rel.partner is not None and {rel.var, rel.partner} <= full.assignment.keys()
            and all(nm in full.assignment for nm, _ in rel.pos + rel.neg)
            for rel in firsts), "inverse": 0}


# ---------------------------------------------------------------------------
# vanishing patterns
# ---------------------------------------------------------------------------

def test_vanishing_pattern_a3():
    p = AlgebraPoint({"x13": 0, "x14": -1, "x15": 0}, None)
    v = vanishing_pattern(p, A3)
    assert v.indices == frozenset({1, 3})


def test_vanishing_pattern_generic_empty():
    p = AlgebraPoint({"x13": 1, "x14": 1, "x15": 1}, None)
    assert vanishing_pattern(p, A3).indices == frozenset()


def test_vanishing_pattern_markov_full():
    p = AlgebraPoint({"x1": 0, "x2": 0, "x3": 0}, None)
    assert vanishing_pattern(p, MARKOV).indices == frozenset({1, 2, 3})


def test_vanishing_pattern_requires_full_chart():
    p = AlgebraPoint({"x13": 0, "x14": -1}, None)
    with pytest.raises(ValueError) as exc:
        vanishing_pattern(p, A3)
    assert "x15" in str(exc.value)


def test_vanishing_pattern_frozen_zero_rejected():
    p = AlgebraPoint({"x": 1, "c1": 0, "c2": 1}, None)
    with pytest.raises(ValueError) as exc:
        vanishing_pattern(p, SL2)
    assert "c1" in str(exc.value)


def test_vanishing_pattern_frozen_index_rejected():
    with pytest.raises(ValueError):
        VanishingPattern(SL2, frozenset({2}))
    with pytest.raises(ValueError):
        VanishingPattern(SL2, frozenset({0}))


def test_adjacent_vanishing():
    assert adjacent_vanishing_pair(VanishingPattern(A3, frozenset({1, 3}))) is None
    assert adjacent_vanishing_pair(VanishingPattern(MARKOV, frozenset({1, 2}))) == (1, 2)
    assert adjacent_vanishing_pair(VanishingPattern(MARKOV, frozenset({2}))) is None


# ---------------------------------------------------------------------------
# vanishing cycles
# ---------------------------------------------------------------------------

def test_trace_cycle_markov():
    v = VanishingPattern(MARKOV, frozenset({1, 2, 3}))
    cycle = trace_vanishing_cycle(v, 1, 2)
    assert cycle == (1, 2, 3)
    # consecutive entries, including the wrap-around, are positive edges
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert MARKOV.matrix.b(a, b) > 0


def test_trace_cycle_bad_start():
    v = VanishingPattern(A3, frozenset({1, 3}))
    with pytest.raises(ValueError):
        trace_vanishing_cycle(v, 1, 3)      # B_13 = 0


def test_trace_cycle_no_successor():
    v = VanishingPattern(MARKOV, frozenset({1, 2}))
    with pytest.raises(NoForcedSuccessor):
        trace_vanishing_cycle(v, 1, 2)      # B_2c <= 0 for all c in V


def test_trace_cycle_under_mutation():
    seed = MARKOV
    for ks in [(1,), (2, 3), (1, 2, 1)]:
        s = seed
        for k in ks:
            s = s.mutated(k)
        v = VanishingPattern(s, frozenset({1, 2, 3}))
        a, b = (1, 2) if s.matrix.b(1, 2) > 0 else (2, 1)
        cycle = trace_vanishing_cycle(v, a, b)
        for u, w in zip(cycle, cycle[1:] + cycle[:1]):
            assert s.matrix.b(u, w) > 0


# ---------------------------------------------------------------------------
# regularization
# ---------------------------------------------------------------------------

def a3_namer(seed, k):
    return {1: "x24", 2: "x35", 3: "x46"}[k]


def test_regularize_a3_frozen():
    out = regularize_at(A3, VanishingPattern(A3, frozenset({1, 3})), namer=a3_namer)
    table = out.table
    assert table.names == ("x13", "x14", "x15", "x24", "x46")
    coeffs = [(c.to_expr(), g, h) for c, g, h in out.terms]
    assert coeffs == [
        ("x14^-1", "x13", "x24"),
        ("1", "x15", "x46"),
        ("-x14^-1*x46", "x15", "x14"),
    ]


def test_regularize_a3_reduces_to_wp():
    out = regularize_at(A3, VanishingPattern(A3, frozenset({1, 3})), namer=a3_namer)
    assert forms_equal(reduce_to_chart(out, A3), wp_form(A3))


def test_regularize_denominators_avoid_pattern():
    out = regularize_at(A3, VanishingPattern(A3, frozenset({1, 3})), namer=a3_namer)
    banned = {"x13", "x15"}
    for coeff, _, _ in out.terms:
        assert not (set(coeff.den.variables_used()) & banned)
        for exps in coeff.num.terms:
            for name, e in zip(coeff.num.table.names, exps):
                if e < 0:
                    assert name not in banned


def test_regularize_empty_pattern_is_wp():
    out = regularize_at(AFFINE, VanishingPattern(AFFINE, frozenset()))
    assert forms_equal(reduce_to_chart(out, AFFINE), wp_form(AFFINE))
    assert all(g in AFFINE.names and h in AFFINE.names for _, g, h in out.terms)


def test_regularize_markov_adjacent_pair():
    with pytest.raises(HypothesisViolated) as exc:
        regularize_at(MARKOV, VanishingPattern(MARKOV, frozenset({1, 2})))
    assert exc.value.pair == (1, 2)


def test_regularize_markov_singleton():
    out = regularize_at(MARKOV, VanishingPattern(MARKOV, frozenset({1})))
    assert forms_equal(reduce_to_chart(out, MARKOV), wp_form(MARKOV))
    for coeff, _, _ in out.terms:
        assert "x1" not in coeff.den.variables_used()


def test_regularize_sl2_at_origin():
    out = regularize_at(SL2, VanishingPattern(SL2, frozenset({1})),
                        namer=lambda s, k: "x'")
    assert forms_equal(reduce_to_chart(out, SL2), wp_form(SL2))
    exprs = [(c.to_expr(), g, h) for c, g, h in out.terms]
    assert exprs == [("c1^-1*c2^-1", "x", "x'")]


def test_regularize_partner_names_are_fresh():
    # the default name x' of x's partner is taken by the second variable
    twins = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("x", "x'"))
    out = regularize_at(twins, VanishingPattern(twins, frozenset({1})))
    assert out.table.names == ("x", "x'", "x''")
    assert forms_equal(reduce_to_chart(out, twins), wp_form(twins))
    # a namer that repeats itself still gets one fresh name per partner
    out = regularize_at(A3, VanishingPattern(A3, frozenset({1, 3})),
                        namer=lambda s, k: "x14")
    assert out.table.names == ("x13", "x14", "x15", "x14'", "x14'''")
    assert forms_equal(reduce_to_chart(out, A3), wp_form(A3))


@st.composite
def twin_named_seeds(draw):
    """A skew-symmetrizable seed B = S D with 2-4 mutable variables and at
    most one frozen column, named from twins such as x x' x'', and a set of
    slots to vanish."""
    m = draw(st.integers(2, 4))
    n = m + draw(st.integers(0, 1))
    d = [draw(st.integers(1, 2)) for _ in range(m)]
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = draw(st.integers(-1, 1))
            rows[i][j], rows[j][i] = s * d[j], -s * d[i]
        for j in range(m, n):
            rows[i][j] = draw(st.integers(-2, 2))
    names = draw(st.permutations(["x", "x'", "x''", "x'''", "y"]))[:n]
    seed = Seed.initial(ExchangeMatrix(m, n, tuple(map(tuple, rows))), names)
    return seed, draw(st.sets(st.integers(1, m), min_size=1))


@settings(max_examples=100, deadline=None)
@given(twin_named_seeds())
def test_partners_are_named_as_the_first_ring_of_explore(case):
    # a seed's partners are the first ring of a walk from it: partner k is
    # the name explore gives slot k of its k-th cluster, mu_k of the seed
    seed, slots = case
    m, rows = seed.matrix.m, seed.matrix.rows
    ring = tuple(explore(seed, max_depth=1).seeds[k].names[k - 1]
                 for k in range(1, m + 1))
    if is_acyclic(seed.matrix):
        assert acyclic_presentation(seed).primed_names == ring
    # keep the slots regularize_at admits: rows skew-symmetric with their
    # columns, no two vanishing slots exchange-adjacent
    vanishing = []
    for i in sorted(slots):
        if (all(rows[i - 1][j] == -rows[j][i - 1] for j in range(m))
                and not any(rows[i - 1][j - 1] for j in vanishing)):
            vanishing.append(i)
    if vanishing:
        form = regularize_at(seed, VanishingPattern(seed, frozenset(vanishing)))
        assert form.table.names[seed.matrix.n:] == tuple(ring[i - 1] for i in vanishing)


def test_regularize_seed_pattern_mismatch():
    with pytest.raises(ValueError):
        regularize_at(A3, VanishingPattern(MARKOV, frozenset({1})))


def test_regularize_nonsymmetric_vanishing_row_unsupported():
    b2 = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-2, 0))), ("a", "b"))
    with pytest.raises(ValueError):
        regularize_at(b2, VanishingPattern(b2, frozenset({1})))


# ---------------------------------------------------------------------------
# regularizing-seed search
# ---------------------------------------------------------------------------

def test_search_succeeds_at_start():
    seed, form = find_regularizing_seed(MARKOV, constant_vanishing_oracle({1}))
    assert seed == MARKOV
    assert forms_equal(reduce_to_chart(form, MARKOV), wp_form(MARKOV))


def test_search_markov_all_vanish_fails():
    with pytest.raises(NotFoundWithinBudget):
        find_regularizing_seed(MARKOV, constant_vanishing_oracle({1, 2, 3}),
                               max_depth=3)


def test_search_respects_depth_and_seed_budget():
    # without a namer the a3 chart where {1, 2} can vanish is the eighth
    # distinct cluster in breadth-first order, at depth 2, named as explore
    # names it: x15' is already the partner of x15 in the first chart
    oracle = constant_vanishing_oracle({1, 2})
    seed, form = find_regularizing_seed(A3, oracle, max_depth=2, max_seeds=8)
    assert seed.names == ("x13", "x14'", "x15''")
    assert forms_equal(reduce_to_chart(form, seed), wp_form(seed))
    with pytest.raises(NotFoundWithinBudget, match="depth <= 1"):
        find_regularizing_seed(A3, oracle, max_depth=1, max_seeds=100)
    with pytest.raises(NotFoundWithinBudget, match="within 7 seeds"):
        find_regularizing_seed(A3, oracle, max_depth=2, max_seeds=7)


def test_search_from_point():
    p = AlgebraPoint({"x13": 0, "x14": -1, "x15": 0}, None)
    seed, form = find_regularizing_seed(A3, point_vanishing_oracle(p),
                                        namer=a3_namer)
    assert seed == A3
    assert forms_equal(reduce_to_chart(form, A3), wp_form(A3))


# ---------------------------------------------------------------------------
# tangent dimension
# ---------------------------------------------------------------------------

def test_tangent_sl2_deep():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"x": 0, "x'": 0, "c1": 2, "c2": Fraction(-1, 2)}, pres)
    assert tangent_dimension(pres, p) == 3


def test_tangent_a3_deep():
    pres = acyclic_presentation(A3, a3_namer)
    p = AlgebraPoint({"x13": 0, "x14": -1, "x15": 0,
                      "x24": 0, "x35": 0, "x46": 0}, pres)
    assert tangent_dimension(pres, p) == 4


def test_tangent_a3_generic():
    pres = acyclic_presentation(A3, a3_namer)
    p = AlgebraPoint({"x13": 1, "x14": 1, "x15": 1,
                      "x24": 2, "x35": 2, "x46": 2}, pres)
    assert tangent_dimension(pres, p) == 3


def test_tangent_forms_the_partials_once_per_presentation(monkeypatch):
    calls = []
    partial = LaurentPoly.partial
    monkeypatch.setattr(LaurentPoly, "partial",
                        lambda self, name: calls.append(name) or partial(self, name))
    entry = catalog("a3")
    pres = acyclic_presentation(entry.seed, entry.namer)
    assert pres == entry.presentation and pres is not entry.presentation
    p = AlgebraPoint({"x13": 0, "x14": -1, "x15": 0,
                      "x24": 0, "x35": 0, "x46": 0}, pres)
    assert [tangent_dimension(pres, p) for _ in range(2)] == [4, 4]
    assert len(calls) == 3 * 6      # each relation by each generator, once


def test_tangent_forms_no_partial_at_a_torus_point(monkeypatch):
    calls = []
    partial = LaurentPoly.partial
    monkeypatch.setattr(LaurentPoly, "partial",
                        lambda self, name: calls.append(name) or partial(self, name))
    pres = path_presentation.__wrapped__((1, -1, 1, 1))     # A_5, built afresh
    a = dict(zip(pres.names, (1, 2, -1, I, GaussianRational(3, -1))))
    for nm, partner, rel in zip(pres.names, pres.primed_names, pres.relations):
        a[partner] = -rel.evaluate({**a, partner: 0}) / a[nm]
    assert tangent_dimension(pres, AlgebraPoint(a, pres)) == 5
    assert calls == []


def test_tangent_rejects_partial_point():
    pres = acyclic_presentation(SL2)
    with pytest.raises(ValueError) as exc:
        tangent_dimension(pres, AlgebraPoint({"x": 0}, pres))
    assert "c1" in str(exc.value)


def test_tangent_rejects_invalid_point():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"x": 1, "x'": 1, "c1": 1, "c2": 1}, pres)
    with pytest.raises(ValueError) as exc:
        tangent_dimension(pres, p)
    assert str(exc.value) == "not a point of the algebra: x*x' - c1*c2 - 1 = -1"


def test_tangent_at_least_rank_bound():
    pres = acyclic_presentation(A3, a3_namer)
    for vals in [(1, 1, 1, 2, 2, 2), (1, 2, 1, 3, 1, 3)]:
        names = ("x13", "x14", "x15", "x24", "x35", "x46")
        p = AlgebraPoint(dict(zip(names, vals)), pres)
        if verify_point(p):
            continue
        assert tangent_dimension(pres, p) >= 3


def reference_tangent_dimension(presentation, point):
    """``tangent_dimension`` as it was, on a valid point: every partial of
    every relation evaluated, the rank by ``reference_rank``."""
    names = presentation.table.names
    jacobian = [[rel.partial(nm).evaluate(point.assignment) for nm in names]
                for rel in presentation.relations]
    return len(names) - reference_rank(jacobian)


@pytest.mark.parametrize("values,dimension", [
    ((0, -1, 0, 0, 0, 0), 4), ((1, 1, 1, 2, 2, 2), 3)], ids=["deep", "generic"])
def test_tangent_matches_the_dense_reference_on_a3(values, dimension):
    pres = acyclic_presentation(A3, a3_namer)
    p = AlgebraPoint(dict(zip(("x13", "x14", "x15", "x24", "x35", "x46"), values)), pres)
    assert tangent_dimension(pres, p) == reference_tangent_dimension(pres, p) == dimension


@functools.cache
def path_presentation(orientation):
    """The acyclic presentation of the A_n path quiver, n - 1 the length
    of ``orientation``, whose signs orient the edges i -> i+1 or back."""
    n = len(orientation) + 1
    rows = [[0] * n for _ in range(n)]
    for i, sign in enumerate(orientation):
        rows[i][i + 1], rows[i + 1][i] = sign, -sign
    seed = Seed.initial(ExchangeMatrix(n, n, tuple(map(tuple, rows))),
                        [f"y{i}" for i in range(1, n + 1)])
    return acyclic_presentation(seed)


@st.composite
def points_on(draw, pres):
    """A point of ``pres``: chart values drawn with many zeros, frozen ones
    units (so binomials cancel more often), a zero whose binomial P does not
    vanish there made 1 until none is left, then each partner P/x, or, where
    x = 0, drawn and often 0 (as at the singular point of A_3)."""
    a = {nm: GaussianRational.of(draw(st.sampled_from(
        (-1, 1, I, -I) if nm in pres.frozen_names else (0, 0, 0, -1, -1, 1, I, 2))))
        for nm in pres.names}
    while True:
        chart_only = {**a, **dict.fromkeys(pres.primed_names, 0)}
        binomials = [-rel.evaluate(chart_only) for rel in pres.relations]
        stuck = [nm for nm, p in zip(pres.names, binomials) if p and not a[nm]]
        if not stuck:
            break
        a[stuck[0]] = GaussianRational(1)
    for nm, partner, p in zip(pres.names, pres.primed_names, binomials):
        a[partner] = p / a[nm] if a[nm] else draw(st.sampled_from((0, 0, 0, 1, I)))
    return AlgebraPoint(a, pres)


@st.composite
def path_points(draw):
    """A point of an A_3..A_8 path presentation, by ``points_on``."""
    pres = path_presentation(tuple(draw(st.lists(st.sampled_from((1, -1)),
                                                 min_size=2, max_size=7))))
    return pres, draw(points_on(pres))


@settings(max_examples=150, deadline=None)
@given(path_points())
def test_tangent_matches_the_dense_reference_on_path_presentations(case):
    pres, point = case
    assert tangent_dimension(pres, point) == reference_tangent_dimension(pres, point)


@st.composite
def acyclic_points(draw):
    """A point of the presentation of a seed from ``acyclic_seeds``, by
    ``points_on``."""
    pres = acyclic_presentation(draw(acyclic_seeds()))
    return pres, draw(points_on(pres))


def _point(seed, values):
    pres = acyclic_presentation(seed)
    return pres, AlgebraPoint(dict(zip(pres.table.names, values)), pres)


D4 = Seed.initial(ExchangeMatrix(4, 4, ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0),
                                        (-1, 0, 0, 0))), ("a", "b", "c", "d"))
# two isolated mutable indices, x_i * x_i' = f_i + 1, both 0 at f = -1
ISOLATED = Seed.initial(ExchangeMatrix(2, 4, ((0, 0, 1, 0), (0, 0, 0, 1))),
                        ("x", "y", "f", "g"))


@settings(max_examples=300, deadline=None)
@given(acyclic_points())
# random points seldom have two vanishing rows: b = c = 0 at a = -1, where
# rows b and c are equal (rank 1 of 2) and, with b', c' nonzero, independent
@example(_point(D4, (-1, 0, 0, I, -1, 0, 0, 0)))
@example(_point(D4, (-1, 0, 0, I, -1, 1, I, 0)))
# every mutable variable vanishes, beside two frozen ones
@example(_point(ISOLATED, (0, 0, -1, -1, 1, 0)))
@example(_point(G2_FROZEN, (0, -1, 1, 1, 5, -1)))
@example(_point(G2_FROZEN, (I, 1, 2, -1, -3 * I, GaussianRational(-2, -1))))
def test_tangent_matches_the_dense_reference_on_acyclic_presentations(case):
    pres, point = case
    assert tangent_dimension(pres, point) == reference_tangent_dimension(pres, point)


# ---------------------------------------------------------------------------
# deep witness
# ---------------------------------------------------------------------------

def reference_deep_witness(point, exploration):
    """deep_witness as a per-seed loop over the members' values."""
    statuses = []
    for s in exploration.seeds:
        values = [point.assignment.get(nm) for nm in s.names]
        if any(v is not None and not v for v in values):
            statuses.append("has-determined-zero")
        elif all(v is not None and v for v in values):
            statuses.append("all-determined-nonzero")
        else:
            statuses.append("undetermined")
    if "all-determined-nonzero" in statuses:
        verdict = "not-deep"
    elif "undetermined" in statuses:
        verdict = "inconclusive"
    elif exploration.truncated:
        verdict = "deep-relative"
    else:
        verdict = "deep"
    return tuple(statuses), verdict


@settings(max_examples=200, deadline=None)
@given(partial_points())
def test_deep_witness_matches_the_per_seed_loop(case):
    exploration, point = case
    if isinstance(point.context, Presentation):
        return
    full, _ = propagate_point(point, exploration)
    for p in (point, full):
        report = deep_witness(p, exploration)
        assert (report.cluster_status, report.verdict) == reference_deep_witness(p, exploration)


def test_deep_witness_affine_relative():
    e = affine_chain()
    p = AlgebraPoint({"x0": I, "x1": 0, "x2": -I, "x3": 0}, e)
    q, _ = propagate_point(p, e)
    report = deep_witness(q, e)
    assert report.cluster_status == ("has-determined-zero",) * 4
    assert report.verdict == "deep-relative"


def test_deep_witness_generic_not_deep():
    e = explore(SL2, max_seeds=10, max_depth=4)
    p = AlgebraPoint({"x": 1, "c1": 1, "c2": 1}, e)
    q, _ = propagate_point(p, e)
    report = deep_witness(q, e)
    assert report.cluster_status[0] == "all-determined-nonzero"
    assert report.verdict == "not-deep"


def test_deep_witness_inconclusive():
    e = affine_chain()
    p = AlgebraPoint({"x1": 0, "x3": 0}, e)    # says nothing about {x2,x3}? no: x3=0 covers s2,s3
    q, _ = propagate_point(p, e)
    report = deep_witness(q, e)
    # cluster {x0,x1} and {x2,x1} are avoided; x2, x4 never determined
    assert report.cluster_status[0] == "has-determined-zero"
    assert report.verdict == "deep-relative"

    p2 = AlgebraPoint({"x1": 0}, e)
    report2 = deep_witness(p2, e)
    assert report2.cluster_status[2] == "undetermined"
    assert report2.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------

def test_point_file_round_values():
    text = "# deep point\nx0 = i\nx1 = 0\nx2 = -i\nx3 = 0\nc = 1/2-5/2i\n"
    values = parse_point_file(text, "p.point")
    assert values["x0"] == I
    assert values["x2"] == -I
    assert values["c"] == GaussianRational(Fraction(1, 2), Fraction(-5, 2))


@pytest.mark.parametrize("text,fragment", [
    ("x0 = 1\nx0 = 2\n", "duplicate"),
    ("x0 : 1\n", "="),
    ("x0 = 1.5\n", "literal"),
    ("2bad = 1\n", "name"),
    ("i = 2\n", "name"),
])
def test_point_file_errors(text, fragment):
    with pytest.raises(PointFileError) as exc:
        parse_point_file(text, "bad.point")
    assert "bad.point" in str(exc.value)
    assert fragment.lower() in str(exc.value).lower()


def test_point_file_error_line():
    with pytest.raises(PointFileError) as exc:
        parse_point_file("x0 = 1\n\nx1 = nope\n", "p.point")
    assert exc.value.line == 3


def test_catalog_point_files_round_trip():
    """parse . emit gives each catalog point back; emit . parse . emit is
    the identity on bytes."""
    points = [p for key in CATALOG_KEYS for p in catalog(key).points.values()]
    assert len(points) == 8
    for point in points:
        text = _emit_point(point)
        assert parse_point_file(text) == point.assignment
        assert _emit_point(AlgebraPoint(parse_point_file(text))) == text
