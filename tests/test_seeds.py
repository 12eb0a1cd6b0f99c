"""Seeds: matrix mutation, symmetrizers, acyclicity, presentations, explore."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp.laurent import LaurentPoly, VarTable
from clusterwp.seeds import (
    ExchangeMatrix,
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
    prime_toggle,
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
    t = s.table
    x = LaurentPoly.variable(t, "x")
    c1 = LaurentPoly.variable(t, "c1")
    c2 = LaurentPoly.variable(t, "c2")
    assert s.expansions[0] == x ** -1 * c1 * c2 + x ** -1
    assert s.names == ("x'", "c1", "c2")
    # frozen slots untouched
    assert s.expansions[1] == c1 and s.expansions[2] == c2


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
    s = affine_seed().mutated(1).mutated(2)
    t = s.table
    x0 = LaurentPoly.variable(t, "x0")
    x1 = LaurentPoly.variable(t, "x1")
    x3 = (x0 ** -2 * x1 ** 3 + 2 * x0 ** -2 * x1 + x0 ** -2 * x1 ** -1 + x1 ** -1)
    assert s.expansions[1] == x3


def test_prime_toggle():
    assert prime_toggle("x") == "x'"
    assert prime_toggle("x'") == "x"
    assert prime_toggle("x14'") == "x14"


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
    p = acyclic_presentation(a3_seed(), primed_names=("x24", "x35", "x46"))
    t = p.table
    assert t.names == ("x13", "x14", "x15", "x24", "x35", "x46")
    v = {n: LaurentPoly.variable(t, n) for n in t.names}
    assert p.relations == (
        v["x13"] * v["x24"] - v["x14"] - 1,
        v["x14"] * v["x35"] - v["x15"] - v["x13"],
        v["x15"] * v["x46"] - 1 - v["x14"],
    )


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
    assert len(calls) == 43


def test_explore_frozen_expansions_stable():
    e = explore(sl2_seed(), max_seeds=10, max_depth=4)
    c1 = LaurentPoly.variable(e.seeds[0].table, "c1")
    for s in e.seeds:
        assert s.expansions[1] == c1


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
        for name, exp in zip(s.names, s.expansions):
            key = exp.canonical_key()
            assert seen.setdefault(key, name) == name
    assert len(seen) == 9


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
