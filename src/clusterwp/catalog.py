"""Built-in worked examples.

Each entry bundles a seed with everything the command line needs to talk
about it fluently: a naming convention for new variables, a reference
exploration, an acyclic presentation when one exists, distinguished
points, and alternate 2-form expressions.

Besides the default ``prime_namer``, two naming conventions do real work:

* hexagon diagonals — the rank-3 chain fixture is the coordinate ring of
  diagonal lengths of a convex hexagon, variables labelled ``x13``
  through ``x46`` by endpoint pair.  Mutation is a diagonal flip, and
  ``hexagon_namer`` computes the flipped diagonal from the current
  triangulation instead of inventing primed names.
* affine indices — the rank-2 affine fixture satisfies the recurrence
  x_{k-1} x_{k+1} = x_k^2 + 1, so every variable carries an integer
  index.  ``affine_namer`` replaces index c in the cluster {x_c, x_o} by
  2o - c; negative indices render as ``xm1``, ``xm2`` (hyphens are not
  legal in variable names).

The affine entry's exploration is deliberately *not* a breadth-first
search: it is a two-sided directed walk covering the index window
[-2, 5], marked truncated, so that deep-point verdicts over it are
reported relative to the window rather than as absolute certificates.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .exact import GaussianRational
from .forms import parse_form_file
from .regularity import AlgebraPoint, verify_point
from .seeds import (
    ExchangeMatrix,
    Exploration,
    Seed,
    _Record,
    acyclic_presentation,
    explore,
    prime_namer,
)


class CatalogEntry(_Record):
    """A catalog key's seed, its namer ``(seed, k) -> name``, exploration and
    presentation (None if it has none), and its named points and forms,
    each a dict: so an entry has no hash."""

    __slots__ = ("key", "description", "seed", "namer", "exploration", "presentation",
                 "points", "forms")

    def __init__(self, key, description, seed, namer, exploration, presentation, points,
                 forms):
        self._fill(key, description, seed, namer, exploration, presentation, points, forms)


# ---------------------------------------------------------------------------
# naming conventions
# ---------------------------------------------------------------------------

_DIAGONAL_RE = re.compile(r"^x([1-6])([1-6])$")
_HEX_SIDES = frozenset(frozenset({a, a % 6 + 1}) for a in range(1, 7))


def hexagon_namer(seed, k):
    """Name for the variable created by flipping diagonal k of a hexagon
    triangulation.

    The mutable variables must be labelled ``x<a><b>`` with 1 <= a,b <= 6;
    together with the six hexagon sides they must triangulate the hexagon.
    The flipped diagonal bounds exactly two triangles, and the replacement
    is the opposite diagonal of that quadrilateral.
    """
    chords = []
    for name in seed.names[:seed.matrix.n]:
        match = _DIAGONAL_RE.match(name)
        if match is None:
            raise ValueError(f"{name!r} is not a hexagon diagonal label")
        a, b = sorted((int(match.group(1)), int(match.group(2))))
        if a == b or b - a in (1, 5):
            raise ValueError(f"{name!r} labels a hexagon side, not a diagonal")
        chords.append(frozenset({a, b}))
    edges = _HEX_SIDES | set(chords)
    flipped = chords[k - 1]
    a, b = sorted(flipped)
    corners = [c for c in range(1, 7)
               if c not in flipped
               and frozenset({a, c}) in edges and frozenset({b, c}) in edges]
    if len(corners) != 2:
        raise ValueError(
            f"diagonals {sorted(sorted(ch) for ch in chords)} do not "
            f"triangulate the hexagon around diagonal {a}{b}")
    c, d = sorted(corners)
    return f"x{c}{d}"


_AFFINE_RE = re.compile(r"^x(m?)(\d+)$")


def _affine_index(name):
    match = _AFFINE_RE.match(name)
    if match is None:
        raise ValueError(f"{name!r} is not an indexed affine label")
    value = int(match.group(2))
    return -value if match.group(1) else value


def _affine_label(index):
    return f"xm{-index}" if index < 0 else f"x{index}"


def affine_namer(seed, k):
    """Name x_{2o-c} for the variable replacing x_c in the cluster
    {x_c, x_o} of the rank-2 affine recurrence."""
    if seed.matrix.n != 2:
        raise ValueError("affine index naming needs exactly two mutable variables")
    current = _affine_index(seed.names[k - 1])
    other = _affine_index(seed.names[2 - k])
    return _affine_label(2 * other - current)


def affine_window_exploration(seed, lo, hi):
    """Directed exploration of the affine exchange graph over the index
    window [lo, hi]: walk upward from the initial cluster by mutating the
    lower-index slot, then downward by mutating the higher-index slot.
    Always truncated — the full exchange graph is infinite."""
    indices = sorted(_affine_index(n) for n in seed.names)
    if indices[1] != indices[0] + 1:
        raise ValueError("window walk expects a consecutive initial cluster")
    if not (lo <= indices[0] and indices[1] <= hi):
        raise ValueError("initial cluster lies outside the requested window")
    seeds = [seed]
    for pick, end in ((min, hi), (max, lo)):   # lowest index going up, highest going down
        current = seed
        while end not in (idx := [_affine_index(n) for n in current.names]):
            k = 1 + idx.index(pick(idx))
            current = current.mutated(k, affine_namer(current, k))
            seeds.append(current)
    return Exploration(seeds, truncated=True)


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

_SL2_REGULAR = """\
gen x' = (c1*c2 + 1)/x
1/(c1*c2) ; x ; x'
"""

_A3_REGULAR = """\
gen x24 = (x14 + 1)/x13
gen x46 = (x14 + 1)/x15
x14^-1 ; x13 ; x24
x14^-1 ; x46 ; x15
"""

# The would-be globally regular expression for the affine fixture.  Its
# chart reduction is half the Weil-Petersson form, which is what the
# `equal` subcommand is meant to expose.
_AFFINE_CANDIDATE = """\
gen x2 = (x1^2 + 1)/x0
gen x3 = ((x1^2 + 1)^2 + x0^2)/(x0^2*x1)
x0*x3 ; x1 ; x2
-1/2*x1*x3 ; x0 ; x2
-1/2*x0*x2 ; x1 ; x3
x1*x2 ; x1 ; x2
"""


def _build_sl2():
    seed = Seed.initial(ExchangeMatrix(1, 3, ((0, 1, 1),)), ("x", "c1", "c2"))
    exploration = explore(seed, max_seeds=8, max_depth=4)
    presentation = acyclic_presentation(seed)
    deep = AlgebraPoint({"x": 0, "x'": 0, "c1": 2, "c2": Fraction(-1, 2)},
                        presentation)
    regular = parse_form_file(_SL2_REGULAR, seed, "<catalog:sl2>")
    return CatalogEntry(
        key="sl2",
        description="one mutable variable against two coefficients; the "
                    "smallest chart with a deep point",
        seed=seed,
        namer=prime_namer,
        exploration=exploration,
        presentation=presentation,
        points={"deep": deep},
        forms={"regular": regular},
    )


def _build_a3():
    matrix = ExchangeMatrix(3, 3, ((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
    seed = Seed.initial(matrix, ("x13", "x14", "x15"))
    exploration = explore(seed, max_seeds=100, max_depth=6, namer=hexagon_namer)
    presentation = acyclic_presentation(seed, hexagon_namer)
    deep_values = {
        "x13": 0, "x14": -1, "x15": 0,
        "x24": 0, "x25": -1, "x26": 0,
        "x35": 0, "x36": -1, "x46": 0,
    }
    deep = AlgebraPoint(deep_values, exploration)
    generic = AlgebraPoint({"x13": 1, "x14": 1, "x15": 1}, exploration)
    regular = parse_form_file(_A3_REGULAR, seed, "<catalog:a3>")
    return CatalogEntry(
        key="a3",
        description="hexagon diagonal algebra: nine variables, fourteen "
                    "triangulations, a deep point at the long diagonals",
        seed=seed,
        namer=hexagon_namer,
        exploration=exploration,
        presentation=presentation,
        points={"deep": deep, "generic": generic},
        forms={"regular": regular},
    )


def _staircase_point(j, lo, hi, context):
    values = {}
    for k in range(lo, hi + 1):
        r = (k - j) % 4
        if r == 0:
            v = GaussianRational(0, 1)
        elif r == 2:
            v = GaussianRational(0, -1)
        else:
            v = 0
        values[_affine_label(k)] = v
    return AlgebraPoint(values, context)


def _build_affine():
    seed = Seed.initial(ExchangeMatrix(2, 2, ((0, 2), (-2, 0))), ("x0", "x1"))
    window = affine_window_exploration(seed, -2, 5)
    presentation = acyclic_presentation(seed, affine_namer)
    points = {f"p{j}": _staircase_point(j, -2, 5, window) for j in range(4)}
    candidate = parse_form_file(_AFFINE_CANDIDATE, seed, "<catalog:affine-a11>")
    return CatalogEntry(
        key="affine-a11",
        description="rank-2 affine recurrence x_{k-1} x_{k+1} = x_k^2 + 1 "
                    "explored over the index window [-2, 5]",
        seed=seed,
        namer=affine_namer,
        exploration=window,
        presentation=presentation,
        points=points,
        forms={"candidate": candidate},
    )


def _build_markov():
    matrix = ExchangeMatrix(3, 3, ((0, 2, -2), (-2, 0, 2), (2, -2, 0)))
    seed = Seed.initial(matrix, ("x1", "x2", "x3"))
    exploration = explore(seed, max_seeds=100, max_depth=2)
    origin = AlgebraPoint({"x1": 0, "x2": 0, "x3": 0}, exploration)
    return CatalogEntry(
        key="markov",
        description="the cyclic rank-3 chart with doubled exchanges; no "
                    "acyclic presentation exists and every variable may vanish",
        seed=seed,
        namer=prime_namer,
        exploration=exploration,
        presentation=None,
        points={"p0": origin},
        forms={},
    )


_BUILDERS = {
    "sl2": _build_sl2,
    "a3": _build_a3,
    "affine-a11": _build_affine,
    "markov": _build_markov,
}
CATALOG_KEYS = tuple(_BUILDERS)


@functools.lru_cache(maxsize=None)
def catalog(key):
    """Build (and cache) the catalog entry for ``key``.

    Every shipped point is re-verified against its context here, so a
    broken fixture fails loudly at first use rather than in some later
    computation.
    """
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise KeyError(f"unknown catalog key {key!r} (available: "
                       f"{', '.join(CATALOG_KEYS)})") from None
    entry = builder()
    for name, point in entry.points.items():
        problems = verify_point(point)
        if problems:
            raise RuntimeError(
                f"catalog point {key}:{name} fails verification: {problems[0]}")
    return entry
