"""Exact-arithmetic layer: frozen values and algebraic properties.

Expected values below were derived by hand (conjugate products, small
inverses) or cross-checked against sympy, which serves as the independent
oracle for rank computations.  ``FractionPair``, the two-``Fraction``
scalar that the integer-triple ``GaussianRational`` replaced, is kept as
the oracle for every scalar operation, ``reference_format_gaussian``,
the literal built from the two ``Fraction`` parts, that of
``format_gaussian``, which builds it from the integer triple, and
``reference_rank``, the Gauss-Jordan loop that forward elimination
replaced, that of ``rank``.
"""

import runpy
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterwp.exact import (
    GaussianParseError,
    GaussianRational,
    format_gaussian,
    parse_gaussian,
    rank,
)

G = GaussianRational
IUNIT = G(0, 1)

small_fractions = st.fractions(min_value=-30, max_value=30, max_denominator=12)
gaussians = st.builds(G, small_fractions, small_fractions)
nonzero_gaussians = gaussians.filter(bool)


# ---------------------------------------------------------------------------
# field arithmetic, frozen cases
# ---------------------------------------------------------------------------

def test_conjugate_pair_product():
    # (1/2 + 1/2 i)(1/2 - 1/2 i) = 1/4 + 1/4 = 1/2
    a = G(Fraction(1, 2), Fraction(1, 2))
    assert a * a.conjugate() == G(Fraction(1, 2))


def test_i_squared_is_minus_one():
    assert IUNIT * IUNIT == G(-1)


def test_inverse_of_minus_i():
    # (-i) * i = 1, so 1/(-i) = i
    assert (-IUNIT).inverse() == IUNIT
    assert G(1) / (-IUNIT) == IUNIT


def test_division_frozen():
    # (3+2i)/(1-i) = (3+2i)(1+i)/2 = (1+5i)/2
    q = G(3, 2) / G(1, -1)
    assert q == G(Fraction(1, 2), Fraction(5, 2))


def test_powers_frozen():
    one_plus_i = G(1, 1)
    assert one_plus_i ** 4 == G(-4)            # ((1+i)^2)^2 = (2i)^2
    assert one_plus_i ** -2 == G(0, Fraction(-1, 2))  # 1/(2i) = -i/2
    assert one_plus_i ** 0 == G(1)


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        G(0).inverse()
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_int_and_fraction_coercion():
    assert G(2) + 1 == G(3)
    assert 1 - G(0, 1) == G(1, -1)
    assert Fraction(1, 2) * G(4, 2) == G(2, 1)
    assert G(1) / 2 == G(Fraction(1, 2))
    assert 2 / G(0, 1) == G(0, -2)


# ---------------------------------------------------------------------------
# field axioms (randomized)
# ---------------------------------------------------------------------------

@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (-a) == G(0)


@given(nonzero_gaussians)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == G(1)


@given(gaussians, gaussians)
def test_conjugation(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


# ---------------------------------------------------------------------------
# the two-Fraction scalar as an oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionPair:
    """re + im*i with re, im Fractions: the slow path, operand by operand."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, z):
        return cls(Fraction(z.re), Fraction(z.im))

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return FractionPair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** -e
        result = FractionPair(Fraction(1), Fraction(0))
        for _ in range(e):
            result = result * self
        return result


def reference_format_gaussian(value):
    """The literal built from the ``Fraction`` parts ``re`` and ``im``, as
    ``format_gaussian`` was before it read the integer triple."""
    re_, im = value.re, value.im
    if not im:
        return str(re_)
    if not re_ and im == 1:
        return "i"
    if not re_ and im == -1:
        return "-i"
    sign = "+" if im > 0 else "-"
    return f"{re_}{sign}{abs(im)}i"


def assert_agrees(z, oracle):
    assert isinstance(z, G)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (oracle.re, oracle.im)
    assert hash(z) == hash(oracle)
    assert str(z) == format_gaussian(z) == reference_format_gaussian(oracle)


# scalars with small parts, so that both integral and non-integral values
# and every denominator pattern turn up often
gaussian_parts = st.one_of(st.integers(-6, 6),
                           st.fractions(min_value=-6, max_value=6, max_denominator=6))
mixed_gaussians = st.builds(G, gaussian_parts, gaussian_parts)


@given(mixed_gaussians, mixed_gaussians)
def test_operations_agree_with_fraction_pair(z, w):
    oz, ow = FractionPair.of(z), FractionPair.of(w)
    assert_agrees(z, oz)
    assert_agrees(z + w, oz + ow)
    assert_agrees(z - w, oz - ow)
    assert_agrees(z * w, oz * ow)
    assert_agrees(-z, FractionPair(-oz.re, -oz.im))
    assert_agrees(z.conjugate(), oz.conjugate())
    assert (z == w) == (oz == ow)
    if w:
        assert_agrees(z / w, oz / ow)
        assert_agrees(w.inverse(), ow.inverse())
    for e in range(-3, 6):
        if z or e >= 0:
            assert_agrees(z ** e, oz ** e)


@given(mixed_gaussians, gaussian_parts)
def test_mixed_operands_agree_with_fraction_pair(z, x):
    oz, ox = FractionPair.of(z), FractionPair(Fraction(x), Fraction(0))
    assert_agrees(z + x, oz + ox)
    assert_agrees(x + z, ox + oz)
    assert_agrees(z - x, oz - ox)
    assert_agrees(x - z, ox - oz)
    assert_agrees(z * x, oz * ox)
    assert_agrees(x * z, ox * oz)
    assert (z == x) == (oz == ox)
    assert (z == x) == (x == z)
    if x:
        assert_agrees(z / x, oz / ox)
    if z:
        assert_agrees(x / z, ox / oz)


def test_hash_agrees_with_int_and_fraction():
    assert hash(G(3)) == hash(3)
    assert hash(G(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(G(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert {3: "x"}[G(3)] == "x"
    assert {Fraction(1, 2): "y"}[G(Fraction(1, 2))] == "y"


def test_equal_values_built_differently():
    a = G(Fraction(2, 4), 1)
    b = G(Fraction(1, 2), Fraction(2, 2))
    c = G(1, 2) / 2 + G(0, 0)
    assert a == b == c
    assert (a.re, a.im) == (b.re, b.im) == (c.re, c.im) == (Fraction(1, 2), Fraction(1))
    assert hash(a) == hash(b) == hash(c)
    assert G(Fraction(4, 2), Fraction(0, 5)) == G(2) == 2
    assert G(2, 2) * G(Fraction(1, 2), Fraction(-1, 2)) == G(2)


def test_power_edge_cases():
    z = G(Fraction(1, 3), 2)
    assert z ** 1 is z
    assert z ** 0 == G(1) and G(0) ** 0 == G(1)
    assert G(0) ** 3 == 0
    with pytest.raises(ZeroDivisionError):
        G(0) ** -1


def test_non_scalars_are_refused():
    with pytest.raises(TypeError, match="cannot treat 1.5 as an exact rational"):
        G.of(1.5)
    with pytest.raises(TypeError):
        G(1) + 1.5
    with pytest.raises(TypeError):
        G(1.5)
    assert (G(1) == 1.0) is False


# ---------------------------------------------------------------------------
# literal grammar
# ---------------------------------------------------------------------------

PARSE_CASES = [
    ("3", G(3)),
    ("-7", G(-7)),
    ("-1/2", G(Fraction(-1, 2))),
    ("1/2+1/2i", G(Fraction(1, 2), Fraction(1, 2))),
    ("1/2-1/2i", G(Fraction(1, 2), Fraction(-1, 2))),
    ("i", IUNIT),
    ("-i", -IUNIT),
    ("+i", IUNIT),
    ("2i", G(0, 2)),
    ("-3/4i", G(0, Fraction(-3, 4))),
    ("0-2i", G(0, -2)),
    ("3+i", G(3, 1)),
    ("3-i", G(3, -1)),
    ("0+1i", IUNIT),
]


@pytest.mark.parametrize("text,value", PARSE_CASES)
def test_parse_gaussian(text, value):
    assert parse_gaussian(text) == value


FORMAT_CASES = [
    (G(3), "3"),
    (G(Fraction(-1, 2)), "-1/2"),
    (G(0), "0"),
    (IUNIT, "i"),
    (-IUNIT, "-i"),
    (G(0, 2), "0+2i"),
    (G(0, Fraction(-2, 3)), "0-2/3i"),
    (G(3, 1), "3+1i"),
    (G(Fraction(1, 2), Fraction(-5, 2)), "1/2-5/2i"),
]


@pytest.mark.parametrize("value,text", FORMAT_CASES)
def test_format_gaussian(value, text):
    assert format_gaussian(value) == text
    assert str(value) == text


# parts that are zero, +-1, negative or non-integral, so 0, +-1, +-i and
# d > 1 all turn up often
literal_parts = st.one_of(st.sampled_from([0, 1, -1]), small_fractions)


@given(st.builds(G, literal_parts, literal_parts))
@settings(max_examples=300)
def test_format_gaussian_matches_the_fraction_rendering(z):
    assert format_gaussian(z) == reference_format_gaussian(z)


@given(gaussians)
def test_literal_round_trip(z):
    assert parse_gaussian(format_gaussian(z)) == z


@pytest.mark.parametrize("bad", ["", "1.5", "i2", "1+", "--1", "1/0", "1//2",
                                 "i+1", "1 + i", "2x", "1+ii"])
def test_parse_gaussian_rejects(bad):
    with pytest.raises(GaussianParseError):
        parse_gaussian(bad)


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def test_rank_frozen_jacobian_rows():
    # Gradient rows of the three exchange relations of the hexagon example
    # at its deep point: rows one and three coincide, row two is independent.
    m = [
        [0, -1, 0, 0, 0, 0],
        [-1, 0, -1, 0, -1, 0],
        [0, -1, 0, 0, 0, 0],
    ]
    assert rank(m) == 2


def test_rank_complex_dependence():
    # second row is i times the first
    m = [[G(1), IUNIT], [IUNIT, G(-1)]]
    assert rank(m) == 1


def test_rank_edge_cases():
    assert rank([[0, 0], [0, 0]]) == 0
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank(eye) == 3
    assert rank([[0, 2, 5]]) == 1


def test_rank_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        rank([[1, 2], [3]])


small_ints = st.integers(min_value=-4, max_value=4)
# parts with denominators 1 to 6, so that rows meet unequal denominators
small_parts = st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=6))
small_entries = st.builds(G, small_parts, small_parts)


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return rows


@given(small_matrices())
def test_rank_transpose_invariant(m):
    assert rank(m) == rank(list(zip(*m)))


@given(small_matrices())
@settings(deadline=None)
def test_rank_matches_sympy(m):
    import sympy

    sm = sympy.Matrix(len(m), len(m[0]), lambda i, j: (
        sympy.Rational(m[i][j].re) + sympy.I * sympy.Rational(m[i][j].im)
    ))
    assert rank(m) == sm.rank()


def reference_rank(rows):
    """The Gauss-Jordan elimination that ``rank`` replaced: it scales each
    pivot row to 1 and clears the pivot column above and below."""
    rows = [[G.of(x) for x in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


@st.composite
def low_rank_matrices(draw):
    """An n x c product of an n x r and an r x c factor, up to 8 x 16 (the
    shape of the A_8 Jacobian), half of the entries zero: empty pivot
    columns, row swaps and rows that run out before the columns all occur."""
    n, c = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    r = draw(st.integers(0, min(n, c)))
    entries = st.one_of(st.just(G(0)), small_entries)
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    return [[sum((row[k] * right[k][j] for k in range(r)), G(0)) for j in range(c)]
            for row in left]


@given(st.one_of(small_matrices(), low_rank_matrices()))
@settings(max_examples=150, deadline=None)
def test_rank_matches_gauss_jordan(m):
    assert rank(m) == reference_rank(m)


@given(small_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(m, rng):
    rows = [list(row) for row in m]
    i = rng.randrange(len(m))
    j = rng.randrange(len(m))
    rows[i], rows[j] = rows[j], rows[i]
    k = rng.randrange(len(m))
    rows[k] = [G(3) * x for x in rows[k]]
    assert rank(rows) == rank(m)


# ---------------------------------------------------------------------------
# micro-benchmark script
# ---------------------------------------------------------------------------

def test_microbench_smoke(capsys):
    script = Path(__file__).parent.parent / "scripts" / "microbench.py"
    runpy.run_path(str(script))["main"](repeat=1)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 35 and all(line.endswith(" us/call") for line in lines)
    for label in ("gaussian ** integral", "gaussian ** non-integral",
                  "laurent square markov-60", "laurent cube markov-60",
                  "laurent divide_exact markov-60",
                  "laurent divide_exact non-monic", "laurent to_expr markov-60",
                  "seeds exploration a5", "seeds relations a5", "seeds explore a6",
                  "seeds explore markov-4000", "seeds acyclic-search a6",
                  "laurent evaluate a8-jacobian", "exact rank a8",
                  "regularity propagate_point a5",
                  "regularity verify_point a5", "regularity deep_witness a5",
                  "regularity tangent_dimension a5", "regularity tangent_dimension a8",
                  "regularity tangent_dimension a8-deep",
                  "rational substitute a3/markov", "pullback a3/markov",
                  "wp_form a3/markov", "check_invariance a3/markov d4",
                  "regularize_at a3", "exprs parse a4-rewrite", "equal a4-rewrite",
                  "startup import clusterwp.cli"):
        assert any(line.startswith(label) for line in lines)


# ---------------------------------------------------------------------------
# line-count script
# ---------------------------------------------------------------------------

LOC_SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
def f(x,
      y):
    """Function docstring."""
    total = (x +
             y)
    return total \\
        + os.sep.count("#")
'''


def test_line_counter_leaves_out_blank_comment_and_docstring_lines(capsys):
    script = runpy.run_path(str(Path(__file__).parent.parent / "scripts" / "loc.py"))
    # 14 lines: 2 of module docstring, 3 blank, 1 comment, 1 function docstring
    assert script["count_lines"](LOC_SNIPPET) == (14, 7)
    script["main"]()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total" and "seeds.py" in [row[0] for row in rows]
    assert [sum(int(row[c]) for row in rows[:-1]) for c in (1, 2)] == list(
        map(int, rows[-1][1:]))
