"""Worked-example catalog coverage.

Expected values are frozen by hand from the four standard fixtures:

[DERIVED] hexagon diagonal relabelling: a convex hexagon with vertices
1..6 has nine diagonals (13,14,15,24,25,26,35,36,46); the initial fan
triangulation at vertex 1 uses {13,14,15}, and flipping diagonal (a,b)
replaces it by the opposite diagonal of the quadrilateral formed by the
two incident triangles.  Flip 13 -> 24, flip 14 -> 35, flip 15 -> 46
(checked by hand against the fan adjacency).

[DERIVED] rank-2 affine index walk: in the cluster {x_a, x_{a+1}} the
exchange replaces index c by 2*other - c, so walking upward from {x0,x1}
gives x2,x3,x4,x5 and walking downward gives x_{-1}, x_{-2}.

[DERIVED] the staircase points p_j on the affine window assign i at
indices congruent to j mod 4, -i at j+2 mod 4, and 0 at odd offsets;
then x_{k-1}*x_{k+1} = x_k^2 + 1 reads 1 = 1 (even k-j) or 0 = 0 (odd).

[TRIVIAL] census numbers (14 clusters / 9 variables for the hexagon,
7 clusters / 8 variables for the affine window) re-assert values already
pinned in the exploration tests.
"""

import pytest

from clusterwp.catalog import (
    CATALOG_KEYS,
    CatalogEntry,
    affine_namer,
    affine_window_exploration,
    catalog,
    hexagon_namer,
)
from fractions import Fraction

from clusterwp.exact import GaussianRational
from clusterwp.forms import forms_equal, reduce_to_chart, wp_form
from clusterwp.regularity import (
    AlgebraPoint,
    deep_witness,
    propagate_point,
    tangent_dimension,
    vanishing_pattern,
    verify_point,
)

I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# registry basics


def test_catalog_keys_frozen():
    assert CATALOG_KEYS == ("sl2", "a3", "affine-a11", "markov")


def test_unknown_key_rejected():
    with pytest.raises(KeyError):
        catalog("e8")


def test_entries_are_cached():
    assert catalog("sl2") is catalog("sl2")


@pytest.mark.parametrize("key", CATALOG_KEYS)
def test_every_entry_well_formed(key):
    entry = catalog(key)
    assert isinstance(entry, CatalogEntry)
    assert entry.key == key
    assert entry.description
    # every shipped point passes verification in its shipped context
    for name, point in entry.points.items():
        assert verify_point(point) == [], (key, name)


# ---------------------------------------------------------------------------
# sl2


def test_sl2_seed_shape():
    seed = catalog("sl2").seed
    assert seed.matrix.rows == ((0, 1, 1),)
    assert seed.names == ("x", "c1", "c2")


def test_sl2_exploration_census():
    entry = catalog("sl2")
    assert len(entry.exploration.seeds) == 2
    assert entry.exploration.n_variables == 4
    assert not entry.exploration.truncated


def test_sl2_presentation_names():
    pres = catalog("sl2").presentation
    assert pres.table.names == ("x", "c1", "c2", "x'")


def test_sl2_deep_point_values():
    point = catalog("sl2").points["deep"]
    assert point.assignment["x"] == GaussianRational.of(0)
    assert point.assignment["x'"] == GaussianRational.of(0)
    assert point.assignment["c1"] == GaussianRational.of(2)
    assert point.assignment["c2"] == GaussianRational.of(Fraction(-1, 2))


def test_sl2_alternate_form_matches_wp():
    entry = catalog("sl2")
    alt = entry.forms["regular"]
    assert forms_equal(reduce_to_chart(alt, entry.seed), wp_form(entry.seed))


def test_sl2_tangent_at_deep_point():
    entry = catalog("sl2")
    assert tangent_dimension(entry.presentation, entry.points["deep"]) == 3


# ---------------------------------------------------------------------------
# hexagon namer


def test_hexagon_initial_flips():
    seed = catalog("a3").seed
    assert hexagon_namer(seed, 1) == "x24"
    assert hexagon_namer(seed, 2) == "x35"
    assert hexagon_namer(seed, 3) == "x46"


def test_hexagon_second_flip():
    seed = catalog("a3").seed.mutated(1, "x24")
    # triangulation {24, 14, 15}: the quadrilateral around 14 is 1-2-4-5
    assert hexagon_namer(seed, 2) == "x25"


def test_hexagon_namer_requires_diagonal_labels():
    seed = catalog("sl2").seed
    with pytest.raises(ValueError):
        hexagon_namer(seed, 1)


# ---------------------------------------------------------------------------
# a3


def test_a3_census():
    entry = catalog("a3")
    assert len(entry.exploration.seeds) == 14
    assert entry.exploration.n_variables == 9
    assert not entry.exploration.truncated


def test_a3_variables_are_the_nine_diagonals():
    entry = catalog("a3")
    assert set(entry.exploration.variables) == {
        "x13", "x14", "x15", "x24", "x25", "x26", "x35", "x36", "x46",
    }


def test_a3_presentation_uses_diagonal_primes():
    pres = catalog("a3").presentation
    assert pres.primed_names == ("x24", "x35", "x46")


def test_a3_deep_point_is_short_zero_long_minus_one():
    point = catalog("a3").points["deep"]
    zero = GaussianRational.of(0)
    minus_one = GaussianRational.of(-1)
    for short in ("x13", "x24", "x35", "x46", "x15", "x26"):
        assert point.assignment[short] == zero
    for long in ("x14", "x25", "x36"):
        assert point.assignment[long] == minus_one


def test_a3_deep_point_vanishing_pattern():
    entry = catalog("a3")
    pattern = vanishing_pattern(entry.points["deep"], entry.seed)
    assert pattern.indices == frozenset({1, 3})


def test_a3_deep_witness_certifies():
    entry = catalog("a3")
    report = deep_witness(entry.points["deep"], entry.exploration)
    assert report.verdict == "deep"
    assert set(report.cluster_status) == {"has-determined-zero"}


def test_a3_generic_point_propagates_everywhere_nonzero():
    entry = catalog("a3")
    point = AlgebraPoint(entry.points["generic"].assignment, entry.exploration)
    full, issues = propagate_point(point, entry.exploration)
    assert issues == []
    assert len(full.assignment) == 9
    assert all(v for v in full.assignment.values())
    report = deep_witness(full, entry.exploration)
    assert report.verdict == "not-deep"


def test_a3_tangent_dimensions():
    entry = catalog("a3")
    assert tangent_dimension(entry.presentation, entry.points["deep"]) == 4


def test_a3_regular_form_matches_wp():
    entry = catalog("a3")
    alt = entry.forms["regular"]
    assert forms_equal(reduce_to_chart(alt, entry.seed), wp_form(entry.seed))


# ---------------------------------------------------------------------------
# affine namer and window


def test_affine_namer_steps():
    seed = catalog("affine-a11").seed
    assert affine_namer(seed, 1) == "x2"
    assert affine_namer(seed, 2) == "xm1"
    up = seed.mutated(1, "x2")
    assert affine_namer(up, 2) == "x3"
    down = seed.mutated(2, "xm1")
    assert affine_namer(down, 1) == "xm2"


def test_affine_namer_requires_indexed_labels():
    with pytest.raises(ValueError):
        affine_namer(catalog("sl2").seed, 1)


def test_affine_window_census():
    window = catalog("affine-a11").exploration
    assert len(window.seeds) == 7
    assert window.truncated
    assert list(window.variables) == [
        "x0", "x1", "x2", "x3", "x4", "x5", "xm1", "xm2",
    ]


def test_affine_window_clusters_are_consecutive_pairs():
    window = catalog("affine-a11").exploration
    pairs = {frozenset(seed.names) for seed in window.seeds}
    expected = {
        frozenset({"x0", "x1"}), frozenset({"x2", "x1"}),
        frozenset({"x2", "x3"}), frozenset({"x4", "x3"}),
        frozenset({"x4", "x5"}), frozenset({"x0", "xm1"}),
        frozenset({"xm2", "xm1"}),
    }
    assert pairs == expected


def test_affine_window_rebuild_matches_entry():
    entry = catalog("affine-a11")
    rebuilt = affine_window_exploration(entry.seed, -2, 5)
    assert [s.names for s in rebuilt.seeds] == [s.names for s in entry.exploration.seeds]


def test_affine_staircase_points():
    entry = catalog("affine-a11")
    p0 = entry.points["p0"].assignment
    assert p0["x0"] == I
    assert p0["x2"] == -I
    assert p0["x4"] == I
    assert p0["xm2"] == -I
    for odd in ("xm1", "x1", "x3", "x5"):
        assert p0[odd] == GaussianRational.of(0)
    p1 = entry.points["p1"].assignment
    assert p1["x1"] == I
    assert p1["x3"] == -I
    assert p1["x0"] == GaussianRational.of(0)
    assert set(entry.points) == {"p0", "p1", "p2", "p3"}


def test_affine_deep_witness_is_relative():
    entry = catalog("affine-a11")
    report = deep_witness(entry.points["p0"], entry.exploration)
    assert report.verdict == "deep-relative"
    assert report.relative
    assert not report.certified


def test_affine_presentation_partner_names():
    pres = catalog("affine-a11").presentation
    assert pres.primed_names == ("x2", "xm1")


def test_affine_candidate_form_reduces_to_half_wp():
    entry = catalog("affine-a11")
    candidate = entry.forms["candidate"]
    reduced = reduce_to_chart(candidate, entry.seed)
    half = wp_form(entry.seed).scaled(Fraction(1, 2))
    assert forms_equal(reduced, half)
    assert not forms_equal(reduced, wp_form(entry.seed))


# ---------------------------------------------------------------------------
# markov


def test_markov_seed_and_weights():
    entry = catalog("markov")
    assert entry.seed.matrix.rows == ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
    assert entry.presentation is None


def test_markov_exploration_is_truncated():
    entry = catalog("markov")
    assert entry.exploration.truncated
    assert len(entry.exploration.seeds) == 10


def test_markov_origin_point():
    entry = catalog("markov")
    assert all(
        v == GaussianRational.of(0) for v in entry.points["p0"].assignment.values()
    )
