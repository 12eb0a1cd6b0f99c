"""Points, propagation, vanishing patterns, regularization, tangent spaces."""

from fractions import Fraction

import pytest

from clusterwp.exact import GaussianRational
from clusterwp.forms import forms_equal, reduce_to_chart, wp_form
from clusterwp.laurent import VarTable
from clusterwp.regularity import (
    AlgebraPoint,
    HypothesisViolated,
    NoForcedSuccessor,
    PointFileError,
    VanishingPattern,
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
    Exploration,
    NotFoundWithinBudget,
    Seed,
    acyclic_presentation,
    explore,
)

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


def test_tangent_rejects_partial_point():
    pres = acyclic_presentation(SL2)
    with pytest.raises(ValueError) as exc:
        tangent_dimension(pres, AlgebraPoint({"x": 0}, pres))
    assert "c1" in str(exc.value)


def test_tangent_rejects_invalid_point():
    pres = acyclic_presentation(SL2)
    p = AlgebraPoint({"x": 1, "x'": 1, "c1": 1, "c2": 1}, pres)
    with pytest.raises(ValueError):
        tangent_dimension(pres, p)


def test_tangent_at_least_rank_bound():
    pres = acyclic_presentation(A3, a3_namer)
    for vals in [(1, 1, 1, 2, 2, 2), (1, 2, 1, 3, 1, 3)]:
        names = ("x13", "x14", "x15", "x24", "x35", "x46")
        p = AlgebraPoint(dict(zip(names, vals)), pres)
        if verify_point(p):
            continue
        assert tangent_dimension(pres, p) >= 3


# ---------------------------------------------------------------------------
# deep witness
# ---------------------------------------------------------------------------

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
