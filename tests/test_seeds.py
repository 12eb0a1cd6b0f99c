"""Seeds: matrix mutation, symmetrizers, acyclicity, presentations, explore."""

import itertools
from collections import deque
from itertools import islice
from math import prod
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterwp import seeds as seeds_module
from clusterwp.catalog import CATALOG_KEYS, catalog
from clusterwp.laurent import LaurentPoly, RationalFn, VarTable
from clusterwp.seeds import (
    ExchangeMatrix,
    ExchangeRelation,
    Exploration,
    NotAcyclic,
    NotFoundWithinBudget,
    NotSkewSymmetrizable,
    Seed,
    SeedFileError,
    acyclic_presentation,
    emit_seed_file,
    explore,
    find_acyclic_seed,
    find_directed_cycle,
    find_skew_symmetrizer,
    is_acyclic,
    mutate_matrix,
    parse_seed_file,
    prime_namer,
    prime_toggle,
)
from clusterwp.regularity import constant_vanishing_oracle, find_regularizing_seed
from clusterwp.seeds import (
    _chart,
    _exchange_monomials,
    _partner,
    _walk,
    _walk_namer,
)

SL2 = ExchangeMatrix(1, 3, ((0, 1, 1),))
A3 = ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
AFFINE = ExchangeMatrix(2, 2, ((0, 2), (-2, 0)))
MARKOV = ExchangeMatrix(3, 3, ((0, 2, -2), (-2, 0, 2), (2, -2, 0)))


def sl2_seed():
    return Seed.initial(SL2, ("x", "c1", "c2"))


def a3_seed():
    return Seed.initial(A3, ("x13", "x14", "x15"))


def affine_seed():
    return Seed.initial(AFFINE, ("x0", "x1"))


def markov_seed():
    return Seed.initial(MARKOV, ("x1", "x2", "x3"))


def twins_seed():
    """A rank-2 chart whose second name is the prime-toggle of its first."""
    return Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("x", "x'"))


# ---------------------------------------------------------------------------
# matrix mutation
# ---------------------------------------------------------------------------

def test_mutate_matrix_affine_frozen():
    assert mutate_matrix(AFFINE, 1).rows == ((0, -2), (2, 0))


def test_mutate_matrix_a3_frozen():
    assert mutate_matrix(A3, 2).rows == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))


def test_mutate_matrix_sl2_frozen():
    assert mutate_matrix(SL2, 1).rows == ((0, -1, -1),)


def test_mutate_matrix_markov_frozen():
    assert mutate_matrix(MARKOV, 1).rows == ((0, -2, 2), (2, 0, -2), (-2, 2, 0))


@pytest.mark.parametrize("matrix", [SL2, A3, AFFINE, MARKOV])
def test_matrix_involution(matrix):
    for k in range(1, matrix.m + 1):
        assert mutate_matrix(mutate_matrix(matrix, k), k) == matrix


def test_mutate_matrix_bad_direction():
    with pytest.raises(ValueError):
        mutate_matrix(SL2, 2)   # direction must be mutable
    with pytest.raises(ValueError):
        mutate_matrix(SL2, 0)


# ---------------------------------------------------------------------------
# skew-symmetrizers
# ---------------------------------------------------------------------------

def test_symmetrizer_of_skew_symmetric_is_ones():
    assert find_skew_symmetrizer(A3) == (1, 1, 1)
    assert find_skew_symmetrizer(MARKOV) == (1, 1, 1)


def test_symmetrizer_b2_frozen():
    b2 = ExchangeMatrix(2, 2, ((0, 1), (-2, 0)))
    assert find_skew_symmetrizer(b2) == (2, 1)


def test_symmetrizer_isolated_vertices():
    m = ExchangeMatrix(2, 3, ((0, 0, 1), (0, 0, -1)))
    assert find_skew_symmetrizer(m) == (1, 1)


@pytest.mark.parametrize("rows,pair", [
    (((0, 1), (1, 0)), (1, 2)),           # same sign
    (((0, 1), (0, 0)), (1, 2)),           # zero/nonzero mismatch
    (((1, 0), (0, 0)), (1, 1)),           # nonzero diagonal
])
def test_not_skew_symmetrizable(rows, pair):
    with pytest.raises(NotSkewSymmetrizable) as exc:
        ExchangeMatrix(2, 2, rows)
    assert exc.value.pair == pair


@pytest.mark.parametrize("m,n,rows,match", [
    (1, 2, ((0, True),), "entries must be integers, got True"),
    (True, 2, ((0, 1),), "need integers"),
    (1, 2, [(0, 1)], "a tuple of 1 rows"),
    (1, 2, ([0, 1],), "a tuple of 2 entries"),
], ids=["bool-entry", "bool-m", "list-rows", "list-row"])
def test_exchange_matrix_takes_exact_ints_in_tuples(m, n, rows, match):
    with pytest.raises(ValueError, match=match):
        ExchangeMatrix(m, n, rows)


def test_symmetrizer_ratio_inconsistency():
    rows = ((0, 1, -1), (-2, 0, 1), (2, -2, 0))
    with pytest.raises(NotSkewSymmetrizable):
        ExchangeMatrix(3, 3, rows)


def test_symmetrizer_preserved_by_mutation():
    b2 = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-2, 0))), ("a", "b"))
    d = find_skew_symmetrizer(b2.matrix)
    for ks in itertools.product((1, 2), repeat=3):
        s = b2
        for k in ks:
            s = s.mutated(k)
            assert find_skew_symmetrizer(s.matrix) == d


# ---------------------------------------------------------------------------
# seed mutation and the exchange relation
# ---------------------------------------------------------------------------

def test_sl2_mutation_expansion_frozen():
    s = sl2_seed().mutated(1)
    e = Exploration([sl2_seed(), s], truncated=False)
    t = sl2_seed().chart()
    x = LaurentPoly.variable(t, "x")
    c1 = LaurentPoly.variable(t, "c1")
    c2 = LaurentPoly.variable(t, "c2")
    assert e.variables["x'"] == x ** -1 * c1 * c2 + x ** -1
    assert s.names == ("x'", "c1", "c2")
    # frozen slots untouched
    assert e.variables["c1"] == c1 and e.variables["c2"] == c2


def test_seed_involution_with_names():
    for seed in (sl2_seed(), a3_seed(), affine_seed(), markov_seed()):
        for k in range(1, seed.matrix.m + 1):
            assert seed.mutated(k).mutated(k) == seed


def test_seed_involution_deeper():
    seed = a3_seed()
    for ks in itertools.product((1, 2, 3), repeat=2):
        s = seed
        for k in ks:
            s = s.mutated(k)
        for k in (1, 2, 3):
            assert s.mutated(k).mutated(k) == s


def test_affine_expansion_frozen():
    # x0 -> (x1^2+1)/x0, then x1 -> (x2^2+1)/x1 stays Laurent in (x0, x1)
    s1 = affine_seed().mutated(1)
    s = s1.mutated(2)
    e = Exploration([affine_seed(), s1, s], truncated=True)
    t = affine_seed().chart()
    x0 = LaurentPoly.variable(t, "x0")
    x1 = LaurentPoly.variable(t, "x1")
    x3 = (x0 ** -2 * x1 ** 3 + 2 * x0 ** -2 * x1 + x0 ** -2 * x1 ** -1 + x1 ** -1)
    assert e.variables[s.names[1]] == x3


def test_prime_toggle():
    assert prime_toggle("x") == "x'"
    assert prime_toggle("x'") == "x"
    assert prime_toggle("x14'") == "x14"


def test_prime_namer_is_fresh_in_the_seed():
    assert prime_namer(sl2_seed(), 1) == "x'"
    assert sl2_seed().mutated(1).mutated(1).names == ("x", "c1", "c2")
    # the toggle of x is x' and the toggle of x' is x: both are taken
    assert prime_namer(twins_seed(), 1) == "x''"
    assert prime_namer(twins_seed(), 2) == "x''"
    assert twins_seed().mutated(1).names == ("x''", "x'")
    assert twins_seed().mutated(2).names == ("x", "x''")


def test_prime_namer_never_gives_the_imaginary_unit():
    # the toggle of i' is i, which names the imaginary unit
    seed = Seed.initial(ExchangeMatrix(1, 2, ((0, 1),)), ("i'", "c"))
    assert seed.mutated(1).names == ("i''", "c")
    assert [s.names for s in explore(seed).seeds] == [("i'", "c"), ("i''", "c")]


def test_custom_name():
    s = affine_seed().mutated(1, new_name="x2")
    assert s.names == ("x2", "x1")


# ---------------------------------------------------------------------------
# acyclicity
# ---------------------------------------------------------------------------

def test_acyclicity_frozen():
    assert is_acyclic(A3) and is_acyclic(SL2) and is_acyclic(AFFINE)
    assert find_directed_cycle(MARKOV) == (1, 2, 3)
    assert find_directed_cycle(mutate_matrix(A3, 2)) == (1, 3, 2)


def test_cycle_edges_positive():
    cyc = find_directed_cycle(MARKOV)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert MARKOV.b(a, b) > 0


def recursive_directed_cycle(matrix):
    """Reference DFS: lowest start first, neighbours ascending."""
    m, rows = matrix.m, matrix.rows
    color = [0] * m
    stack = []
    result = None

    def visit(u):
        nonlocal result
        color[u] = 1
        stack.append(u)
        for v in range(m):
            if v == u or rows[u][v] <= 0:
                continue
            if color[v] == 1:
                at = stack.index(v)
                result = tuple(w + 1 for w in stack[at:])
                return
            if color[v] == 0:
                visit(v)
                if result is not None:
                    return
        stack.pop()
        color[u] = 2

    for r in range(m):
        if color[r] == 0:
            visit(r)
            if result is not None:
                return result
    return None


@st.composite
def skew_symmetric_matrices(draw):
    m = draw(st.integers(1, 7))
    n = m + draw(st.integers(0, 2))
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            b = draw(st.integers(-2, 2))
            rows[i][j], rows[j][i] = b, -b
        for j in range(m, n):
            rows[i][j] = draw(st.integers(-2, 2))
    return ExchangeMatrix(m, n, tuple(tuple(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(skew_symmetric_matrices())
def test_directed_cycle_matches_recursive_dfs(matrix):
    assert find_directed_cycle(matrix) == recursive_directed_cycle(matrix)


def test_find_acyclic_seed_immediate():
    s = a3_seed()
    found = find_acyclic_seed(s, max_seeds=10)
    assert found == s   # already acyclic


def test_find_acyclic_seed_one_step():
    s = a3_seed().mutated(2)
    assert not is_acyclic(s.matrix)
    found = find_acyclic_seed(s, max_seeds=10)
    assert is_acyclic(found.matrix)


def test_find_acyclic_seed_markov_budget():
    with pytest.raises(NotFoundWithinBudget):
        find_acyclic_seed(markov_seed(), max_seeds=50)


def test_not_found_names_its_noun_and_budget():
    exc = NotFoundWithinBudget("acyclic seed", 50, 16)
    assert str(exc) == "no acyclic seed within 50 seeds at depth <= 16"
    assert exc.what == "acyclic seed"


# Two oriented triangles sharing vertex 3 (mutation type A_5): the first
# acyclic seed is the ninth distinct cluster in breadth-first order, at
# depth 2.
TWO_TRIANGLES = ExchangeMatrix(5, 5, (
    (0, -1, 1, 0, 0), (1, 0, -1, 0, 0), (-1, 1, 0, -1, 1),
    (0, 0, 1, 0, -1), (0, 0, -1, 1, 0)))


def test_find_acyclic_seed_budget_edge():
    s = Seed.initial(TWO_TRIANGLES, ("y1", "y2", "y3", "y4", "y5"))
    found = find_acyclic_seed(s, max_seeds=9)
    assert is_acyclic(found.matrix)
    assert found.cluster_key() == explore(s, max_seeds=9).seeds[8].cluster_key()
    with pytest.raises(NotFoundWithinBudget):
        find_acyclic_seed(s, max_seeds=8)
    assert find_acyclic_seed(s, max_seeds=9, max_depth=2) == found
    with pytest.raises(NotFoundWithinBudget):
        find_acyclic_seed(s, max_seeds=100, max_depth=1)


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

def test_sl2_presentation_frozen():
    p = acyclic_presentation(sl2_seed())
    assert p.table.names == ("x", "c1", "c2", "x'")
    assert p.frozen_names == ("c1", "c2")
    x = LaurentPoly.variable(p.table, "x")
    xp = LaurentPoly.variable(p.table, "x'")
    c1 = LaurentPoly.variable(p.table, "c1")
    c2 = LaurentPoly.variable(p.table, "c2")
    assert p.relations == (x * xp - c1 * c2 - 1,)


def test_a3_presentation_frozen():
    p = acyclic_presentation(a3_seed(), lambda s, k: ("x24", "x35", "x46")[k - 1])
    t = p.table
    assert t.names == ("x13", "x14", "x15", "x24", "x35", "x46")
    v = {n: LaurentPoly.variable(t, n) for n in t.names}
    assert p.relations == (
        v["x13"] * v["x24"] - v["x14"] - 1,
        v["x14"] * v["x35"] - v["x15"] - v["x13"],
        v["x15"] * v["x46"] - 1 - v["x14"],
    )


def test_presentation_partners_are_fresh():
    # each partner differs from the seed's names and the partners before it
    p = acyclic_presentation(twins_seed())
    assert p.primed_names == ("x''", "x'''")
    v = {n: LaurentPoly.variable(p.table, n) for n in p.table.names}
    assert p.relations == (v["x"] * v["x''"] - v["x'"] - 1,
                           v["x'"] * v["x'''"] - v["x"] - 1)
    p = acyclic_presentation(a3_seed(), lambda s, k: "x14")
    assert p.primed_names == ("x14'", "x14''", "x14'''")
    assert acyclic_presentation(a3_seed()) == acyclic_presentation(a3_seed(), prime_namer)


def test_presentation_rejects_cyclic():
    with pytest.raises(NotAcyclic) as exc:
        acyclic_presentation(markov_seed())
    assert exc.value.cycle == (1, 2, 3)


# ---------------------------------------------------------------------------
# exploration
# ---------------------------------------------------------------------------

def test_explore_sl2():
    e = explore(sl2_seed(), max_seeds=100, max_depth=6)
    assert len(e.seeds) == 2
    assert e.n_variables == 4        # x, x', c1, c2
    assert not e.truncated


def test_explore_a3_census():
    e = explore(a3_seed(), max_seeds=100, max_depth=6)
    assert len(e.seeds) == 14
    assert e.n_variables == 9
    assert not e.truncated


def test_explore_a3_census_relabeled():
    # counts do not depend on how the seed is labeled
    perm = (1, 2, 0)
    rows = tuple(tuple(A3.rows[perm[i]][perm[j]] for j in range(3)) for i in range(3))
    seed = Seed.initial(ExchangeMatrix(3, 3, rows), ("u", "v", "w"))
    e = explore(seed, max_seeds=100, max_depth=6)
    assert len(e.seeds) == 14
    assert e.n_variables == 9
    assert not e.truncated


def test_explore_a3_depth_cap():
    e = explore(a3_seed(), max_seeds=100, max_depth=1)
    assert len(e.seeds) == 4
    assert e.truncated


def test_explore_affine_budget():
    e = explore(affine_seed(), max_seeds=10, max_depth=50)
    assert len(e.seeds) == 10
    assert e.truncated


def test_explore_stops_at_the_first_cluster_over_budget(monkeypatch):
    # explore ends the moment it discovers cluster max_seeds + 1, so kept
    # seeds are not all expanded
    calls = []
    mutated = Seed.mutated
    monkeypatch.setattr(Seed, "mutated",
                        lambda s, k, name=None: calls.append(k) or mutated(s, k, name))
    e = explore(markov_seed(), max_seeds=30)
    assert len(e.seeds) == 30 and e.truncated
    assert len(calls) == 30


def test_explore_names_are_fresh_in_the_exploration():
    e = explore(twins_seed())
    assert [s.names for s in e.seeds] == [
        ("x", "x'"), ("x''", "x'"), ("x", "x'''"), ("x''", "x''''"), ("x''''", "x'''")]
    assert e.n_variables == 5 and not e.truncated


def reference_fresh(name, taken):
    """The loop that ``_fresh`` replaced: one prime at a time until the name
    is free, so a walk whose names grow runs of primes names in cubic time."""
    while name in taken:
        name += "'"
    taken[name] = None
    return name


def test_fresh_skips_runs_of_taken_names():
    taken = dict.fromkeys(("x", "x'", "x''", "y"))
    assert seeds_module._fresh("x'", taken) == "x'''"
    assert seeds_module._fresh("x", taken) == "x''''"
    assert seeds_module._fresh("y'", taken) == "y'"
    # each name passed over now skips to the name given, primed once
    assert taken["x"] == taken["x'"] == "x'''''"


def test_walk_names_match_the_one_prime_at_a_time_loop(monkeypatch):
    # Markov's names grow by a prime along every path of its walk
    names = [s.names for s in explore(markov_seed(), max_seeds=3000).seeds]
    monkeypatch.setattr(seeds_module, "_fresh", reference_fresh)
    assert [s.names for s in explore(markov_seed(), max_seeds=3000).seeds] == names
    assert max(len(nm) for ns in names for nm in ns) > 100


def test_initial_seed_rejects_repeated_names():
    # one name for two variables would let explore walk with it
    with pytest.raises(ValueError, match="duplicate variable name: 'x'"):
        Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("x", "x"))


def test_a_seed_keeps_one_chart_table():
    # one table per seed lets Laurent arithmetic on its chart match tables
    # by identity; the cached table is no field, so equality is unchanged
    s = a3_seed().mutated(2)
    assert s.chart() is s.chart()
    assert s.chart() == VarTable(s.names)
    assert s == a3_seed().mutated(2) and hash(s) == hash(a3_seed().mutated(2))
    assert s.mutated(2).chart() is not a3_seed().chart()


def _monomial(variables, factors, table):
    out = LaurentPoly.constant(table, 1)
    for name, e in factors:
        for _ in range(e):
            out = out * variables[name]
    return out


@pytest.mark.parametrize("seed,max_seeds", [
    (catalog("markov").seed, 60), (catalog("affine-a11").seed, 40),
    (parse_seed_file((Path(__file__).parent / "golden" / "g2-frozen.seed").read_text()),
     1000),
], ids=["markov-60", "affine-a11", "g2-frozen"])
def test_exchange_relations_hold_over_the_expansions(seed, max_seeds):
    # powers are computed once per exploration and reused; every relation
    # x_k * x_k' = P_k, with P_k's powers formed by repeated products
    # instead, holds exactly (g2-frozen has exponent 3 and frozen factors)
    e = explore(seed, max_seeds=max_seeds)
    variables, table = e.variables, e.seeds[0].chart()
    checked = 0
    for rel in e.relations():
        if rel.partner is None:
            continue
        assert variables[rel.var] * variables[rel.partner] == (
            _monomial(variables, rel.pos, table) + _monomial(variables, rel.neg, table))
        checked += 1
    assert checked >= len(e.seeds)


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_relations_share_a_binomial_number_exactly_when_they_share_p(key):
    # numbered in order of first appearance, one number per distinct
    # P+ + P- as a Laurent polynomial in the first chart
    e = catalog(key).exploration
    variables, table = e.variables, e.seeds[0].chart()
    numbers = {}
    for rel in e.relations():
        p = _monomial(variables, rel.pos, table) + _monomial(variables, rel.neg, table)
        numbers.setdefault(p.canonical_key(), set()).add(rel.binomial)
    assert all(len(shared) == 1 for shared in numbers.values())
    order = list(dict.fromkeys(rel.binomial for rel in e.relations()))
    assert order == list(range(len(numbers)))


@pytest.mark.parametrize("search", [
    explore,
    find_acyclic_seed,
    lambda s, **budget: find_regularizing_seed(s, constant_vanishing_oracle({1}), **budget),
], ids=["explore", "find_acyclic_seed", "find_regularizing_seed"])
@pytest.mark.parametrize("budget", [{"max_seeds": -1}, {"max_depth": -1}],
                         ids=["max_seeds", "max_depth"])
def test_negative_budgets_raise(search, budget):
    with pytest.raises(ValueError, match="negative budget"):
        search(a3_seed(), **budget)


def test_zero_budgets_keep_the_start():
    for budget in ({"max_seeds": 0}, {"max_depth": 0}):
        e = explore(a3_seed(), **budget)
        assert e.seeds == (a3_seed(),) and e.truncated
        assert find_acyclic_seed(a3_seed(), **budget) == a3_seed()
        seed, _ = find_regularizing_seed(a3_seed(), constant_vanishing_oracle({1}), **budget)
        assert seed == a3_seed()


def test_explore_frozen_expansions_stable():
    e = explore(sl2_seed(), max_seeds=10, max_depth=4)
    c1 = LaurentPoly.variable(e.seeds[0].chart(), "c1")
    for s in e.seeds:
        assert e.variables[s.names[1]] == c1


def test_exploration_relations_sl2():
    e = explore(sl2_seed(), max_seeds=10, max_depth=4)
    rels = e.relations()
    assert len(rels) == 2           # one direction per seed
    r = rels[0]
    assert r.var == "x" and r.partner == "x'"
    assert r.pos == (("c1", 1), ("c2", 1)) and r.neg == ()


def test_exploration_name_consistency():
    e = explore(a3_seed(), max_seeds=100, max_depth=6)
    # every expansion has exactly one name across the whole exploration
    seen = {}
    for s in e.seeds:
        for name in s.names:
            key = e.variables[name].canonical_key()
            assert seen.setdefault(key, name) == name
    assert len(seen) == 9


def test_exploration_needs_a_seed():
    with pytest.raises(ValueError, match="^an exploration needs a seed$"):
        Exploration([], False)


def test_exploration_rejects_a_seed_two_mutations_away():
    s = a3_seed()
    with pytest.raises(ValueError, match="not one mutation away"):
        Exploration([s, s.mutated(1).mutated(2)], truncated=True)


def test_exploration_rejects_inconsistent_names():
    s = a3_seed()
    with pytest.raises(ValueError, match="named both"):
        Exploration([s, s.mutated(1, "y"), s.mutated(1, "y").mutated(1, "z")],
                    truncated=True)
    # Seed.mutated refuses a name another slot carries, so build the seed
    t = s.mutated(1)
    with pytest.raises(ValueError, match="reused"):
        Exploration([s, Seed(t.matrix, ("x14",) + t.names[1:], t.gvectors, t.cvectors)],
                    truncated=True)


@pytest.mark.parametrize("name, message", [
    ("x14", "duplicate variable name: 'x14'"),
    ("bad name!", "invalid variable name: 'bad name!'"),
    ("i", "variable name 'i' is reserved for the imaginary unit"),
], ids=["carried", "not-an-identifier", "reserved"])
def test_mutated_refuses_a_bad_new_name(name, message):
    with pytest.raises(ValueError) as exc:
        catalog("a3").seed.mutated(1, name)
    assert str(exc.value) == message


def test_explore_refuses_a_namer_that_gives_a_bad_name():
    with pytest.raises(ValueError, match="invalid variable name: 'x y'"):
        explore(catalog("a3").seed, max_seeds=5, namer=lambda s, k: "x y")


@pytest.mark.parametrize("seed,max_seeds,mutations", [
    (a3_seed(), 1000, 21), (markov_seed(), 100, 100)], ids=["a3", "markov-100"])
def test_explore_forms_each_partner_gvector_once_per_mutation(monkeypatch, seed,
                                                              max_seeds, mutations):
    # the walk names a new variable by the g-vector Seed.mutated just formed
    calls = {"gvector": 0, "mutated": 0}
    gvector, mutated = Seed._partner_gvector, Seed.mutated

    def counted_gvector(self, k):
        calls["gvector"] += 1
        return gvector(self, k)

    def counted_mutated(self, k, new_name=None):
        calls["mutated"] += 1
        return mutated(self, k, new_name)

    monkeypatch.setattr(Seed, "_partner_gvector", counted_gvector)
    monkeypatch.setattr(Seed, "mutated", counted_mutated)
    explore(seed, max_seeds=max_seeds)
    assert calls == {"gvector": mutations, "mutated": mutations}


def _search_past_the_budget(search):
    try:
        search()
    except NotFoundWithinBudget:
        pass


@pytest.mark.parametrize("walk", [
    lambda: explore(markov_seed(), max_seeds=100),
    lambda: explore(a3_seed()),
    lambda: explore(linear_seed(5)),
    lambda: explore(affine_seed(), max_seeds=20, max_depth=50),
    lambda: _search_past_the_budget(lambda: find_acyclic_seed(markov_seed(), max_seeds=60)),
    lambda: _search_past_the_budget(lambda: find_regularizing_seed(
        markov_seed(), constant_vanishing_oracle({1, 2, 3}), max_seeds=60, max_depth=6)),
], ids=["explore-markov", "explore-a3", "explore-A5", "explore-affine",
        "acyclic-markov", "regularizing-markov"])
def test_the_walk_never_steps_back_along_its_arrival_edge(monkeypatch, walk):
    # mu_k is an involution, so mutating a seed in the direction it was
    # reached by finds its parent again; a walk's seed is reached by the
    # first mutation that formed its g-vectors, and the start by none.
    # No other edge is crossed twice either: two adjacent clusters share
    # exactly one edge, so the pair of their keys names it
    arrival, back, edges = {}, [], []
    mutated = Seed.mutated

    def recorded(s, k, new_name=None):
        t = mutated(s, k, new_name)
        back.append(arrival.get(s.gvectors) == k)
        arrival.setdefault(t.gvectors, k)
        edges.append(frozenset((s.cluster_key(), t.cluster_key())))
        return t

    monkeypatch.setattr(Seed, "mutated", recorded)
    walk()
    assert len(back) > 1 and not any(back)
    assert len(set(edges)) == len(edges)


def test_exchange_divisions_once_per_variable(monkeypatch):
    calls = []
    as_laurent = RationalFn.as_laurent
    monkeypatch.setattr(RationalFn, "as_laurent",
                        lambda self: calls.append(self) or as_laurent(self))
    e = explore(a3_seed())
    e.relations()
    assert e.n_variables == 9
    assert len(calls) == 0          # the walk, relations and names divide nothing
    assert len(e.variables) == 9
    assert len(calls) == 6          # once per non-initial variable, on first read
    assert len(e.variables) == 9
    assert len(calls) == 6


def test_mutated_does_no_laurent_arithmetic(monkeypatch):
    starts = [catalog(key).seed for key in CATALOG_KEYS]

    def forbidden(*args):
        raise AssertionError("Seed.mutated did Laurent arithmetic")

    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    monkeypatch.setattr(LaurentPoly, "divide_exact", forbidden)
    for seed in starts:
        for length in (1, 2, 3):
            for ks in itertools.product(range(1, seed.matrix.m + 1), repeat=length):
                s = seed
                for k in ks:
                    s = s.mutated(k)


def path_seed(n):
    """The linearly oriented A_n quiver."""
    rows = tuple(tuple(int(j == i + 1) - int(j == i - 1) for j in range(n))
                 for i in range(n))
    return Seed.initial(ExchangeMatrix(n, n, rows), [f"v{i}" for i in range(n)])


GOLDEN = Path(__file__).parent / "golden"
MUTATION_STARTS = (
    [catalog(key).seed for key in CATALOG_KEYS]
    + [parse_seed_file((GOLDEN / name).read_text(), name)
       for name in ("g2-frozen.seed", "d4.seed")]
    + [path_seed(n) for n in (2, 4, 5, 6)])


def textbook_mutation(rows, k):
    """B'_ij = -B_ij if i or j is k, else B_ij + (|B_ik| B_kj + B_ik |B_kj|) / 2."""
    kk = k - 1
    return tuple(
        tuple(-b if kk in (i, j) else
              b + (abs(row[kk]) * rows[kk][j] + row[kk] * abs(rows[kk][j])) // 2
              for j, b in enumerate(row))
        for i, row in enumerate(rows))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MUTATION_STARTS), st.lists(st.integers(1, 6), max_size=12))
def test_mutation_keeps_the_skew_symmetrizer(start, directions):
    # mutated matrices skip validation, which must be redundant: D is kept
    # (Fomin-Zelevinsky, Cluster algebras I, Prop. 4.5)
    d = find_skew_symmetrizer(start.matrix)
    m, n = start.matrix.m, start.matrix.n
    s = start
    for k in directions:
        k = (k - 1) % m + 1
        t = s.mutated(k)
        extended = textbook_mutation(
            tuple(row + c for row, c in zip(s.matrix.rows, s.cvectors)), k)
        assert t.matrix.rows == tuple(row[:n] for row in extended)
        assert t.cvectors == tuple(row[n:] for row in extended)
        assert find_skew_symmetrizer(t.matrix) == d
        assert ExchangeMatrix(m, n, t.matrix.rows) == t.matrix
        s = t


def test_explore_does_not_revalidate_matrices(monkeypatch):
    start = a3_seed()

    def forbidden(matrix):
        raise AssertionError("a mutated matrix was validated again")

    monkeypatch.setattr(seeds_module, "find_skew_symmetrizer", forbidden)
    e = explore(start)
    assert len(e.seeds) == 14 and e.n_variables == 9
    with pytest.raises(AssertionError, match="validated again"):
        ExchangeMatrix(3, 3, A3.rows)   # input is still validated


# ---------------------------------------------------------------------------
# g-vector keys against the expansion-keyed walk
# ---------------------------------------------------------------------------

def reference_partner(chart, k, values):
    """x_k' = P_k / x_k for row k of a chart ``(matrix, names)``, with each
    name read as its value in ``values``, Laurent polynomials over one
    table: the binomial P+ + P- is formed, then divided by x_k through
    RationalFn.  The oracle of ``seeds._partner``, and the partner of the
    reference walk, which substitutes expansions."""
    matrix, names = chart
    pos, neg = _exchange_monomials(matrix.rows[k - 1], names)
    one = LaurentPoly.constant(values[names[k - 1]].table, 1)
    binomial = (prod([values[nm] ** e for nm, e in pos], start=one)
                + prod([values[nm] ** e for nm, e in neg], start=one))
    return (binomial / values[names[k - 1]]).as_laurent()


def expansion_walk(seed, max_depth):
    """Reference walk: every cluster carries its variables' expansions in
    the start chart and is keyed by their sorted canonical keys, as before
    clusters were keyed by g-vectors.  A new expansion is named once: the
    prime-toggle of the name it replaces, primed until no earlier expansion
    has the name.  Yields (names, rows, depth) in the breadth-first
    discovery order of ``seeds._walk``."""
    table = seed.chart()
    start = tuple(LaurentPoly.variable(table, nm) for nm in seed.names)
    names = {e.canonical_key(): nm for e, nm in zip(start, seed.names)}

    def key(expansions):
        return tuple(sorted(e.canonical_key() for e in expansions))

    seen = {key(start)}
    queue = deque([(seed.matrix, seed.names, start, 0)])
    yield seed.names, seed.matrix.rows, 0
    while queue:
        matrix, t_names, expansions, depth = queue.popleft()
        if depth == max_depth:
            continue
        by_name = dict(zip(t_names, expansions))
        for k in range(1, matrix.m + 1):
            new = list(expansions)
            new[k - 1] = reference_partner((matrix, t_names), k, by_name)
            if key(new) in seen:
                continue
            seen.add(key(new))
            if new[k - 1].canonical_key() not in names:
                name = prime_toggle(t_names[k - 1])
                while name in names.values():
                    name += "'"
                names[new[k - 1].canonical_key()] = name
            u_matrix = mutate_matrix(matrix, k)
            u_names = tuple(names[e.canonical_key()] for e in new)
            queue.append((u_matrix, u_names, tuple(new), depth + 1))
            yield u_names, u_matrix.rows, depth + 1


def assert_walks_agree(seed, max_depth=16, limit=None):
    """The g-vector walk discovers the clusters of ``expansion_walk`` in
    the same order, with the same matrices and the same names."""
    by_g = [(s.names, s.matrix.rows, depth)
            for s, depth in islice(_walk(seed, max_depth), limit)]
    assert by_g == list(islice(expansion_walk(seed, max_depth), limit))


def linear_seed(m):
    """Linearly oriented A_m quiver."""
    rows = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    return Seed.initial(ExchangeMatrix(m, m, tuple(tuple(row) for row in rows)),
                        [f"y{i}" for i in range(1, m + 1)])


@pytest.mark.parametrize("key,max_depth,limit", [
    ("sl2", 16, None), ("a3", 16, None), ("markov", 16, 121), ("affine-a11", 8, None),
])
def test_g_vector_walk_matches_expansion_walk_on_catalog(key, max_depth, limit):
    assert_walks_agree(catalog(key).seed, max_depth, limit)


D4 = ExchangeMatrix(4, 4, ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)))


FINITE_TYPES = [
    (linear_seed(4), 42),
    (linear_seed(5), 132),
    (Seed.initial(D4, ("a", "b", "c", "d")), 50),
    (Seed.initial(ExchangeMatrix(2, 3, ((0, 1, 1), (-2, 0, -1))), ("a", "b", "f")), 6),
    (Seed.initial(ExchangeMatrix(2, 4, ((0, 1, 2, -1), (-3, 0, 1, 1))),
                  ("a", "b", "f", "g")), 8),
    (Seed.initial(ExchangeMatrix(3, 5, ((0, 1, 0, 1, 0), (-1, 0, 1, -1, 2),
                                        (0, -2, 0, 1, 1))),
                  ("a", "b", "c", "f", "g")), 20),
]
FINITE_IDS = ["A4", "A5", "D4", "B2-frozen", "G2-frozen", "B3-frozen"]


@pytest.mark.parametrize("seed,clusters", FINITE_TYPES, ids=FINITE_IDS)
def test_g_vector_walk_matches_expansion_walk_finite_types(seed, clusters):
    assert len(list(_walk(seed, 16))) == clusters
    assert_walks_agree(seed)


@pytest.mark.parametrize("seed_clusters,mutations",
                         zip(FINITE_TYPES, [84, 330, 100, 6, 8, 30]), ids=FINITE_IDS)
def test_a_full_finite_walk_mutates_along_each_edge_once(monkeypatch, seed_clusters,
                                                         mutations):
    # a finite-type exchange graph is m-regular (Fomin-Zelevinsky, Cluster
    # algebras II), so C clusters have m C / 2 edges
    seed, clusters = seed_clusters
    calls = []
    mutated = Seed.mutated
    monkeypatch.setattr(Seed, "mutated", lambda s, k, new_name=None:
                        calls.append(k) or mutated(s, k, new_name))
    assert len(list(_walk(seed, 16))) == clusters
    assert len(calls) == mutations == seed.matrix.m * clusters // 2


@pytest.mark.parametrize("rows", [
    ((0, 1), (-2, 0)), ((0, 1), (-3, 0)), ((0, 1, 0), (-1, 0, 1), (0, -2, 0)),
    A3.rows, MARKOV.rows,
], ids=["B2", "G2", "B3", "A3", "markov"])
def test_g_vectors_are_degrees_of_principal_expansions(rows):
    # with principal coefficients y, the y-free part of a cluster variable's
    # expansion is the single monomial x^g (Fomin-Zelevinsky IV, Cor. 6.3)
    m = len(rows)
    principal = ExchangeMatrix(m, 2 * m, tuple(
        row + tuple(int(i == j) for j in range(m)) for i, row in enumerate(rows)))
    seed = Seed.initial(principal, [f"x{i}" for i in range(m)] + [f"y{i}" for i in range(m)])
    e = explore(seed, max_depth=3)
    for s in e.seeds:
        for name, g in zip(s.names[:m], s.gvectors):
            terms = e.variables[name].terms
            assert {exps: c for exps, c in terms.items() if not any(exps[m:])} == {g: 1}


@st.composite
def skew_symmetrizable_seeds(draw, max_frozen=2):
    """B = S D with S skew-symmetric and D a positive diagonal, plus up to
    ``max_frozen`` frozen columns."""
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


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_seeds(max_frozen=3), st.lists(st.integers(1, 3), max_size=3))
# rank 1, row 0: P+ = P- = 1 and the partner is 2/x
@example(Seed.initial(ExchangeMatrix(1, 1, ((0,),)), ("x",)), [])
# row 1 has no P- and its P+ holds the frozen column; row 2 has no P+
@example(Seed.initial(ExchangeMatrix(2, 3, ((0, 1, 2), (-1, 0, 0))), ("a", "b", "c")), [])
def test_partner_is_the_divided_binomial_term_for_term(seed, directions):
    # term for term in dict order: the num/den term lists of the forms
    # built over a partner follow that order
    for k in directions:
        seed = seed.mutated((k - 1) % seed.matrix.m + 1)
    table = seed.chart()
    variables = {nm: LaurentPoly.variable(table, nm) for nm in seed.names}
    for k in range(1, seed.matrix.m + 1):
        partner = _partner(seed, k)
        assert partner.table is table
        assert (list(partner.terms.items())
                == list(reference_partner(_chart(seed), k, variables).terms.items()))
    if seed.matrix.rows == ((0,),):
        assert _partner(seed, 1).to_expr() == f"2*{seed.names[0]}^-1"


@st.composite
def acyclic_seeds(draw):
    """An acyclic B = S D, S skew-symmetric and D a diagonal of 1, 2 and 3
    (so B_2 and G_2 pairs): each pair of the 1-4 mutable indices is joined
    by 0, 1 or 2 arrows, all pointing up one drawn order (so forests, trees,
    acyclic triangles and double arrows), plus up to three frozen columns."""
    m = draw(st.integers(1, 4))
    frozen = draw(st.integers(0, 3))
    d = [draw(st.integers(1, 3)) for _ in range(m)]
    place = draw(st.permutations(range(m)))
    rows = [[0] * (m + frozen) for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = draw(st.integers(0, 2)) * (1 if place[i] < place[j] else -1)
            rows[i][j], rows[j][i] = s * d[j], -s * d[i]
        for j in range(m, m + frozen):
            rows[i][j] = draw(st.integers(-2, 2))
    matrix = ExchangeMatrix(m, m + frozen, tuple(tuple(row) for row in rows))
    return Seed.initial(matrix, [f"v{i}" for i in range(m + frozen)])


G2_FROZEN = Seed.initial(ExchangeMatrix(2, 4, ((0, 1, 2, -1), (-3, 0, 1, 1))),
                         ("a", "b", "f", "g"))
# a triangle 1 -> 2 -> 3 <- 1 with a double arrow 1 => 2
TRIANGLE = Seed.initial(ExchangeMatrix(3, 3, ((0, 2, 1), (-2, 0, 1), (-1, -1, 0))),
                        ("u", "v", "w"))


@settings(max_examples=150, deadline=None)
@given(acyclic_seeds())
@example(G2_FROZEN)
@example(TRIANGLE)
def test_a_partner_occurs_only_in_its_own_relation(seed):
    # tangent_dimension ranks by this block structure: the partial of
    # relation i by x_j' is x_i when j = i and 0 otherwise
    assert is_acyclic(seed.matrix)
    pres = acyclic_presentation(seed)
    for i, rel in enumerate(pres.relations):
        for j, partner in enumerate(pres.primed_names):
            expected = (LaurentPoly.variable(pres.table, pres.names[i]) if j == i
                        else LaurentPoly.zero(pres.table))
            assert rel.partial(partner) == expected


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_seeds())
def test_g_vector_walk_matches_expansion_walk_random(seed):
    assert_walks_agree(seed, max_depth=3, limit=30)


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_seeds(), st.lists(st.integers(0, 2), max_size=4))
def test_mutated_keeps_the_old_name_and_round_trips(seed, directions):
    a3 = catalog("a3").seed
    assert a3.mutated(1, "x13").names == ("x13", "x14", "x15")
    for k in directions:
        seed = seed.mutated(k % seed.matrix.m + 1)
    for s in (a3.mutated(1, "y"), seed):
        text = emit_seed_file(s)
        again = parse_seed_file(text)
        assert (again.matrix, again.names) == (s.matrix, s.names)
        assert emit_seed_file(again) == text


def reference_walk(seed, max_depth, name=None):
    """Reference walk: ``seeds._walk`` as it was when a seed skipped only
    the direction it was reached by, and so mutated along every other edge
    to a cluster already seen a second time."""
    name = name or _walk_namer(seed)
    seen = {seed.cluster_key()}
    queue = deque([(seed, 0, None)])
    yield seed, 0
    while queue:
        s, depth, back = queue.popleft()
        if depth == max_depth:
            continue
        for k in range(1, s.matrix.m + 1):
            if k == back:
                continue
            t = s.mutated(k, s.names[k - 1])
            key = t.cluster_key()
            if key in seen:
                continue
            seen.add(key)
            new_name = name(s, k, t.gvectors[k - 1])
            t = Seed(t.matrix, t.names[:k - 1] + (new_name,) + t.names[k:],
                     t.gvectors, t.cvectors)
            queue.append((t, depth + 1, k))
            yield t, depth + 1


def assert_walk_matches_reference(seed, max_seeds, max_depth):
    """``_walk`` yields the seeds of ``reference_walk``, field for field and
    depth for depth, and ``explore`` sets ``truncated`` as the reference
    does."""
    def trail(walk):
        return [(s.names, s.matrix, s.gvectors, s.cvectors, depth)
                for s, depth in islice(walk, max_seeds)]

    assert trail(_walk(seed, max_depth)) == trail(reference_walk(seed, max_depth))
    walk = reference_walk(seed, max_depth)
    kept = list(islice(walk, max_seeds))
    truncated = (next(walk, None) is not None
                 or any(depth == max_depth for _, depth in kept))
    assert explore(seed, max_seeds, max_depth).truncated == truncated


@settings(max_examples=150, deadline=None)
@given(skew_symmetrizable_seeds(), st.integers(1, 40), st.integers(0, 5))
def test_walk_matches_the_reference_walk_random(seed, max_seeds, max_depth):
    assert_walk_matches_reference(seed, max_seeds, max_depth)


@pytest.mark.parametrize("key", CATALOG_KEYS)
@pytest.mark.parametrize("max_seeds,max_depth", [(1000, 16), (60, 16), (40, 3)])
def test_walk_matches_the_reference_walk_on_catalog(key, max_seeds, max_depth):
    assert_walk_matches_reference(catalog(key).seed, max_seeds, max_depth)


# ---------------------------------------------------------------------------
# exchange relations against the g-vector loop
# ---------------------------------------------------------------------------

def reference_relations(e):
    """``Exploration.relations()`` as it was when every partner was read
    off its g-vector and every binomial numbered by its unordered pair of
    factor sets."""
    rels, binomials = [], {}
    for idx, s in enumerate(e.seeds):
        for k in range(1, s.matrix.m + 1):
            pos, neg = _exchange_monomials(s.matrix.rows[k - 1], s.names)
            key = frozenset((frozenset(pos), frozenset(neg)))
            rels.append(ExchangeRelation(
                idx, k, s.names[k - 1], e._names.get(s._partner_gvector(k)), pos, neg,
                binomials.setdefault(key, len(binomials))))
    return rels


def assert_relations_match_reference(e):
    """Every relation equals the reference's field for field, and the
    distinct equations are those the reference's relations give."""
    want = reference_relations(e)
    fields = attrgetter("seed_index", "direction", "var", "partner", "pos", "neg", "binomial")
    assert [fields(rel) for rel in e.relations()] == [fields(rel) for rel in want]
    fresh = Exploration(e.seeds, e.truncated)
    fresh.__dict__["_relations"] = want
    assert e._equations == fresh._equations


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_relations_match_the_reference_on_catalog(key):
    assert_relations_match_reference(catalog(key).exploration)


@settings(max_examples=100, deadline=None)
@given(skew_symmetrizable_seeds(), st.one_of(
    st.just({}), st.builds(dict, max_seeds=st.integers(1, 40)),
    st.builds(dict, max_depth=st.integers(0, 4))))
def test_relations_match_the_reference_random(seed, budget):
    assert_relations_match_reference(explore(seed, **budget))


def _named_path(seed, directions):
    """``seed`` and its mutations along ``directions`` in turn, each new
    variable named as a walk from ``seed`` names it."""
    name = _walk_namer(seed)
    path = [seed]
    for k in directions:
        path.append(path[-1].mutated(k, name(path[-1], k)))
    return path


def test_relations_match_the_reference_on_hand_built_explorations():
    a3 = a3_seed()
    twice = Exploration([a3, a3.mutated(1).mutated(1)], True)
    assert twice.seeds[1] == a3          # one cluster listed twice
    assert [rel.partner for rel in twice.relations()] == [None] * 6
    a2 = Seed.initial(ExchangeMatrix(2, 2, ((0, 1), (-1, 0))), ("a", "b"))
    pentagon = _named_path(a2, (1, 2, 1, 2, 1, 2, 1))
    assert pentagon[5].names == ("b", "a")   # the first cluster, slots swapped
    explorations = [twice, Exploration(pentagon[:6], True), Exploration(pentagon, True),
                    Exploration(_named_path(a3, (1, 2, 3, 1, 2)), True)]
    for e in explorations:
        assert_relations_match_reference(e)


# ---------------------------------------------------------------------------
# seed files
# ---------------------------------------------------------------------------

SL2_TEXT = """rank 3
mutable 1
names x c1 c2
row 0 1 1
"""


def test_seed_file_round_trip():
    seed = parse_seed_file(SL2_TEXT, "sl2.seed")
    assert seed == sl2_seed()
    assert emit_seed_file(seed) == SL2_TEXT
    again = parse_seed_file(emit_seed_file(seed), "sl2.seed")
    assert emit_seed_file(again) == SL2_TEXT


def test_seed_file_comments_and_blanks():
    text = "# a comment\n\nrank 2\nmutable 2\nnames a b   # trailing\nrow 0 1\nrow -1 0\n"
    seed = parse_seed_file(text, "c.seed")
    assert seed.names == ("a", "b")
    assert seed.matrix.rows == ((0, 1), (-1, 0))


@pytest.mark.parametrize("text,fragment", [
    ("rank 2\nmutable 2\nnames a\nrow 0 1\nrow -1 0\n", "names"),
    ("rank 2\nmutable 2\nnames a b\nrow 0 1\n", "row"),
    ("rank 2\nmutable 2\nnames a b\nrow 0 1 1\nrow -1 0\n", "entries"),
    ("rank 2\nmutable 3\nnames a b\nrow 0 1\nrow -1 0\n", "mutable"),
    ("rank 2\nmutable 2\nnames a a\nrow 0 1\nrow -1 0\n", "duplicate"),
    ("rank x\nmutable 2\nnames a b\nrow 0 1\nrow -1 0\n", "rank"),
    ("mutable 2\nrank 2\nnames a b\nrow 0 1\nrow -1 0\n", "rank"),
    ("rank 2\nmutable 2\nnames a b\nrow 0 1\nrow 1 0\n", "skew"),
    ("rank 2\nmutable 2\nnames a b\nrow 0 1\nrow -1 0\nrow 0 0\n", "extra"),
    ("rank 2\nmutable 2\nnames a b\nrow 0 q\nrow -1 0\n", "integer"),
])
def test_seed_file_errors(text, fragment):
    with pytest.raises(SeedFileError) as exc:
        parse_seed_file(text, "bad.seed")
    assert "bad.seed" in str(exc.value)
    assert fragment.lower() in str(exc.value).lower()


def test_seed_file_error_carries_line():
    with pytest.raises(SeedFileError) as exc:
        parse_seed_file("rank 2\nmutable 2\nnames a b\nrow 0 1\nrow nope 0\n", "f.seed")
    assert exc.value.line == 5
