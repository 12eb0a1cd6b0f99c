"""Golden transcripts of the exchange-graph walkers and the namers.

``tests/golden/*.out`` hold the exact stdout of the walker commands
(``explore``, ``acyclic --search``, ``regularize --search``; ``explore`` on
a G2 seed with two frozen columns pins the g-vector keys of a
skew-symmetrizable seed with coefficients), of failing ``invariance``
runs (``c3.seed`` at depths 3 and 4, ``m2.seed`` at depth 4, and
``g2-frozen.seed`` at depth 4, a skew-symmetrizable seed with two frozen
columns; the c3 and m2 depth-4 transcripts were captured from the chained
pullbacks, the g2 one from the Laurent push-forward that preceded the
integer dlog carry), of the commands
that name new variables (``present``, ``mutate``, ``regularize`` without a
search, ``tangent`` over a catalog presentation), of ``tangent`` over the
presentations of ``d4.seed`` and ``g2-frozen.seed`` at points where no, one
or two chart variables vanish (no point of ``g2-frozen.seed`` has two: its
two mutable variables are exchange-adjacent, so where one vanishes the
other's binomial is a frozen monomial), of ``deep`` runs (the
a3 catalog deep point, the affine window's ``p0`` and an sl2 point that
leaves a cluster undetermined), one status per cluster, of ``equal`` runs whose
difference has a denominator of more than one term (the a3 and markov
chart forms against forms with binomial denominators) and of
``scripts/tour.py``, which calls every walker consumer.  A refactor of the walk, of the naming or of the form reduction
must reproduce them byte for byte; they are never regenerated from the
code under test.  ``@name`` in an argument list names a seed, point or
form file in the golden directory.
"""

import runpy
from pathlib import Path

import pytest

from clusterwp.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOUR = Path(__file__).parent.parent / "scripts" / "tour.py"

CASES = [
    ("explore-sl2", 0, ["explore", "sl2"]),
    ("explore-a3", 0, ["explore", "a3"]),
    ("explore-affine-a11-depth6", 0, ["explore", "affine-a11", "--max-depth", "6"]),
    ("explore-markov-30", 0, ["explore", "markov", "--max-seeds", "30"]),
    ("explore-d4", 0, ["explore", "@d4.seed"]),
    ("explore-g2-frozen", 0, ["explore", "@g2-frozen.seed"]),
    ("acyclic-sl2-search50", 0, ["acyclic", "sl2", "--search", "50"]),
    ("acyclic-a3-search50", 0, ["acyclic", "a3", "--search", "50"]),
    ("acyclic-affine-a11-search50", 0, ["acyclic", "affine-a11", "--search", "50"]),
    ("acyclic-markov-search50", 1, ["acyclic", "markov", "--search", "50"]),
    ("acyclic-a3-cyclic-search50", 0,
     ["acyclic", "@a3-cyclic.seed", "--search", "50"]),
    ("regularize-a3-13-search50", 0,
     ["regularize", "a3", "--pattern", "1,3", "--search", "50"]),
    ("regularize-a3-123-search50", 1,
     ["regularize", "a3", "--pattern", "1,2,3", "--search", "50"]),
    ("regularize-markov-13-search50", 1,
     ["regularize", "markov", "--pattern", "1,3", "--search", "50"]),
    ("regularize-markov-123-search50", 1,
     ["regularize", "markov", "--pattern", "1,2,3", "--search", "50"]),
    ("regularize-a3-file-12-search50", 0,
     ["regularize", "@a3.seed", "--pattern", "1,2", "--search", "50"]),
    ("invariance-c3-depth3", 1, ["invariance", "@c3.seed", "--depth", "3"]),
    ("invariance-c3-depth4", 1, ["invariance", "@c3.seed", "--depth", "4"]),
    ("invariance-m2-depth4", 1, ["invariance", "@m2.seed", "--depth", "4"]),
    ("invariance-g2-frozen-depth4", 1,
     ["invariance", "@g2-frozen.seed", "--depth", "4"]),
    ("present-sl2", 0, ["present", "sl2"]),
    ("present-a3", 0, ["present", "a3"]),
    ("present-affine-a11", 0, ["present", "affine-a11"]),
    ("mutate-a3-123", 0, ["mutate", "a3", "1", "2", "3"]),
    ("mutate-affine-a11-121", 0, ["mutate", "affine-a11", "1", "2", "1"]),
    ("regularize-sl2-1", 0, ["regularize", "sl2", "--pattern", "1"]),
    ("tangent-a3-deep", 0, ["tangent", "a3", "--point", "@a3-deep.point"]),
    ("tangent-d4-torus", 0, ["tangent", "@d4.seed", "--point", "@d4-torus.point"]),
    ("tangent-d4-b-zero", 0, ["tangent", "@d4.seed", "--point", "@d4-b-zero.point"]),
    ("tangent-d4-bc-zero", 0, ["tangent", "@d4.seed", "--point", "@d4-bc-zero.point"]),
    ("tangent-g2-frozen-torus", 0,
     ["tangent", "@g2-frozen.seed", "--point", "@g2-frozen-torus.point"]),
    ("tangent-g2-frozen-a-zero", 0,
     ["tangent", "@g2-frozen.seed", "--point", "@g2-frozen-a-zero.point"]),
    ("tangent-g2-frozen-b-zero", 0,
     ["tangent", "@g2-frozen.seed", "--point", "@g2-frozen-b-zero.point"]),
    ("deep-a3", 0, ["deep", "a3", "--point", "@a3-deep.point"]),
    ("deep-affine-a11-p0", 0, ["deep", "affine-a11", "--point", "@affine-a11-p0.point"]),
    ("deep-sl2-x-zero", 1, ["deep", "sl2", "--point", "@sl2-x-zero.point"]),
    ("equal-a3-binomial-den", 1,
     ["equal", "a3", "@a3-wp.form", "@a3-binomial-den.form"]),
    ("equal-markov-binomial-den", 1,
     ["equal", "markov", "@markov-wp.form", "@markov-binomial-den.form"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_cli_transcript(capsys, name, code, argv):
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.err) == (code, "")
    assert captured.out == (GOLDEN / f"{name}.out").read_text()


def test_tour_transcript(capsys):
    runpy.run_path(str(TOUR), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / "tour.out").read_text()
