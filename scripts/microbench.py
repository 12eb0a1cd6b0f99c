#!/usr/bin/env python3
"""Micro-benchmarks of the exact kernels under every verdict.

Prints microseconds per call, the least over ``repeat`` timings, for
``GaussianRational`` ``*``, ``+``, ``inverse`` and ``**`` (exponents 0 to 7)
on integral and non-integral values, and for ``LaurentPoly`` ``*``, ``**``,
``divide_exact`` and ``to_expr`` on the Laurent expansions of a Markov
exploration of 60 seeds (those of ``clusterwp explore markov --max-seeds
60``): each product multiplies two expansions met one after the other, each
square squares one expansion, each cube takes one square and one product,
each division undoes one product and each rendering prints one expansion.
The non-monic divisions divide by the second factor times 1+i, a leading
coefficient that is no unit of the Gaussian integers, so the remainder is
rescaled.  ``propagate_point`` runs on the full A_5 exploration (132
clusters, 660 exchange relations) from one fixed Q(i) point of its first
chart, ``verify_point`` and ``deep_witness`` on the point it propagates
to, and ``tangent_dimension`` on the acyclic presentation of that first
chart at the same point.  ``seeds exploration a5`` builds a fresh
``Exploration`` of the A_5 seeds, and ``seeds relations a5`` builds one
and reads its ``relations()`` once, the first read that forms them.
``seeds explore a6`` walks the whole exchange graph of the A_6 path seed
(429 clusters) and reads no expansion, and
``seeds acyclic-search a6`` searches from that seed mutated at 5, 4, 3, 4,
a cyclic seed, for an acyclic one (24 clusters walked).  ``exact rank a8`` is
the rank of the Jacobian of the A_8 acyclic presentation at one fixed Q(i)
point of the variety, ``laurent evaluate a8-jacobian`` evaluates each
nonzero entry of that Jacobian, a partial of a relation, at the point, and
``regularity tangent_dimension a8`` is the tangent dimension there, the
largest presentation the ``points`` benchmark times; there no chart variable
vanishes.  ``regularity tangent_dimension a8-deep`` is the tangent dimension
of the same presentation at a point where c, e and g vanish (b + d = d + f =
f + h = 0), so three relations' rows are left to eliminate.  ``seeds explore
markov-4000`` walks the first 4000 clusters of the Markov catalog seed,
whose names grow by a prime along every path, and reads no expansion.
``rational substitute`` substitutes x_k' = P_k/x_k
into every coefficient of the chart form of mu_k(seed), and ``pullback``
pulls that form back to the seed, for every direction k of the a3 and
markov catalog seeds.  ``wp_form`` builds the chart forms of
those two seeds, ``check_invariance`` checks every mutation sequence of
length 1 to 4 from each of them, and ``regularize_at`` rewrites the a3
seed's form at each of the four nonempty vanishing patterns it accepts.
``exprs parse a4-rewrite`` parses each expression of one A_4-class form
file, the regularization rewrite of its chart form at the vanishing set
{c, d}, and ``equal a4-rewrite`` is what ``clusterwp equal`` computes on
that file and the chart form's file: both parsed, reduced to the chart and
compared.  ``startup import clusterwp.cli`` is the set-up every CLI run
pays: the least, over ``repeat`` fresh interpreters started one at a time
with ``src/`` on the path, of the cumulative microseconds that ``python3
-X importtime -c "import clusterwp.cli"`` reports for ``clusterwp`` and
``clusterwp.cli``.  The interpreters inherit the environment, so where
``PYTHONDONTWRITEBYTECODE`` is set and ``src/`` has no bytecode each one
compiles the package too.

Usage:  python3 scripts/microbench.py [--repeat N]
"""

import argparse
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path

from clusterwp import (
    AlgebraPoint,
    ExchangeMatrix,
    Exploration,
    GaussianRational,
    RationalFn,
    Seed,
    VanishingPattern,
    VarTable,
    acyclic_presentation,
    catalog,
    check_invariance,
    deep_witness,
    explore,
    find_acyclic_seed,
    forms_equal,
    parse_expression,
    parse_form_file,
    propagate_point,
    pullback,
    rank,
    reduce_to_chart,
    regularize_at,
    tangent_dimension,
    verify_point,
    wp_form,
)

G = GaussianRational


def per_call_us(calls, repeat):
    """Least time over ``repeat`` passes of the zero-argument ``calls``,
    in microseconds per call."""
    def one_pass():
        start = time.perf_counter()
        for call in calls:
            call()
        return time.perf_counter() - start

    return min(one_pass() for _ in range(repeat)) / len(calls) * 1e6


def scalar_cases():
    integral = [G(3, -2), G(-5, 7), G(12, 0), G(0, 1)]
    fractional = [G(Fraction(1, 3), Fraction(-2, 5)), G(Fraction(-5, 6), Fraction(7, 4)),
                  G(Fraction(9, 2)), G(Fraction(4, 9), 1)]
    for kind, values in (("integral", integral), ("non-integral", fractional)):
        pairs = [(x, y) for x in values for y in values] * 64
        yield f"gaussian * {kind}", [partial(operator.mul, x, y) for x, y in pairs]
        yield f"gaussian + {kind}", [partial(operator.add, x, y) for x, y in pairs]
        yield f"gaussian inverse {kind}", [x.inverse for x, _ in pairs]
        yield f"gaussian ** {kind}", [partial(operator.pow, x, e)
                                      for x in values for e in range(8)] * 32


def laurent_cases():
    expansions = list(explore(catalog("markov").seed, max_seeds=60).variables.values())
    pairs = list(zip(expansions, expansions[1:]))
    yield "laurent * markov-60", [partial(operator.mul, p, q) for p, q in pairs]
    yield "laurent square markov-60", [partial(operator.mul, p, p) for p in expansions]
    yield "laurent cube markov-60", [partial(operator.pow, p, 3) for p in expansions]
    yield "laurent divide_exact markov-60", [partial((p * q).divide_exact, q)
                                             for p, q in pairs]
    yield "laurent divide_exact non-monic", [partial((p * q).divide_exact, q * G(1, 1))
                                             for p, q in pairs]
    yield "laurent to_expr markov-60", [p.to_expr for p in expansions]


def linear_seed(n):
    """The linearly oriented A_n seed on the variables a, b, c, ..."""
    rows = tuple(tuple((j == i + 1) - (j == i - 1) for j in range(n)) for i in range(n))
    return Seed.initial(ExchangeMatrix(n, n, rows), tuple("abcdefgh"[:n]))


def a8_point(pres, chart):
    """The A_8 chart values ``chart`` and each partner x' = P/x (x * x' = P),
    or 1+i where x = 0, which the caller keeps to zeros of P."""
    at = dict(zip(pres.names, chart))
    for nm, partner, rel in zip(pres.names, pres.primed_names, pres.relations):
        at[partner] = -rel.evaluate({**at, partner: 0}) / at[nm] if at[nm] else G(1, 1)
    return at


def point_cases():
    a8 = acyclic_presentation(linear_seed(8))
    at8 = a8_point(a8, [G(k + 2, k % 3 - 1) for k in range(8)])
    deep8 = a8_point(a8, [G(3, -1), G(1, 1), G(0), G(-1, -1), G(0), G(1, 1), G(0), G(-1, -1)])
    partials = [[rel.partial(nm) for nm in a8.table.names] for rel in a8.relations]
    jacobian = [[p.evaluate(at8) for p in row] for row in partials]
    yield "laurent evaluate a8-jacobian", [partial(p.evaluate, at8)
                                           for row in partials for p in row if p] * 20
    yield "exact rank a8", [partial(rank, jacobian)] * 20
    seed = linear_seed(5)
    names = seed.names
    a5, pres = explore(seed), acyclic_presentation(seed)
    start = AlgebraPoint(dict(zip(names, (G(2), G(1, 1), G(Fraction(-1, 2)), G(3), G(0, 5)))), a5)
    full, _ = propagate_point(start, a5)
    at = AlgebraPoint({nm: full.assignment[nm] for nm in pres.table.names}, pres)
    yield "regularity propagate_point a5", [partial(propagate_point, start, a5)] * 20
    yield "regularity verify_point a5", [partial(verify_point, full)] * 20
    yield "regularity deep_witness a5", [partial(deep_witness, full, a5)] * 20
    yield "regularity tangent_dimension a5", [partial(tangent_dimension, pres, at)] * 20
    yield "regularity tangent_dimension a8", [partial(tangent_dimension, a8,
                                                      AlgebraPoint(at8, a8))] * 20
    yield "regularity tangent_dimension a8-deep", [partial(tangent_dimension, a8,
                                                           AlgebraPoint(deep8, a8))] * 20
    yield "seeds exploration a5", [partial(Exploration, a5.seeds, a5.truncated)] * 4
    yield "seeds relations a5", [lambda: Exploration(a5.seeds, a5.truncated).relations()] * 4
    yield "seeds explore a6", [partial(explore, linear_seed(6))] * 4
    yield "seeds explore markov-4000", [partial(explore, catalog("markov").seed,
                                                max_seeds=4000)]
    cyclic = linear_seed(6)
    for k in (5, 4, 3, 4):
        cyclic = cyclic.mutated(k)
    yield "seeds acyclic-search a6", [partial(find_acyclic_seed, cyclic)] * 16


def form_cases():
    substitutions, pullbacks = [], []
    for key in ("a3", "markov"):
        seed = catalog(key).seed
        table = seed.chart()
        x = {nm: RationalFn.variable(table, nm) for nm in seed.names}
        for k in range(1, seed.matrix.m + 1):
            row = [seed.matrix.b(k, j) for j in range(1, seed.matrix.n + 1)]
            pos, neg = (reduce(operator.mul, [x[nm] ** (s * b) for nm, b in
                                              zip(seed.names, row) if s * b > 0], 1)
                        for s in (1, -1))
            mutated = seed.mutated(k)
            bindings = {**x, mutated.names[k - 1]: (pos + neg) / x[seed.names[k - 1]]}
            form = wp_form(mutated)
            substitutions += [partial(c.substitute, bindings, table)
                              for c in form.coeffs.values()]
            pullbacks.append(partial(pullback, form, seed, k))
    yield "rational substitute a3/markov", substitutions * 4
    yield "pullback a3/markov", pullbacks * 4
    yield "wp_form a3/markov", [partial(wp_form, catalog(key).seed)
                                for key in ("a3", "markov")] * 64
    yield "check_invariance a3/markov d4", [partial(check_invariance, catalog(key).seed, 4)
                                            for key in ("a3", "markov")]
    a3 = catalog("a3").seed
    yield "regularize_at a3", [partial(regularize_at, a3, VanishingPattern(a3, frozenset(v)))
                               for v in ({1}, {2}, {3}, {1, 3})] * 4


A4_ROWS = ((0, 0, 0, 1), (0, 0, 1, 1), (0, -1, 0, 0), (-1, -1, 0, 0))
A4_WP = "1/(a*d) ; a ; d\n1/(b*c) ; b ; c\n1/(b*d) ; b ; d\n"
A4_REWRITE = """\
gen cp = (1 + b)/c
gen dp = (1 + a*b)/d
1/(1) ; c ; cp
-1*cp/(1*b) ; c ; b
1/(1) ; d ; dp
-1*dp/(1*a) ; d ; a
-1*dp/(1*b) ; d ; b
"""


def equal_cases():
    seed = Seed.initial(ExchangeMatrix(4, 4, A4_ROWS), tuple("abcd"))
    table = VarTable(("a", "b", "c", "d", "cp", "dp"))
    texts = [line.split("=")[1] if line.startswith("gen") else line.split(";")[0]
             for line in A4_REWRITE.splitlines()]

    def equal():
        forms = [reduce_to_chart(parse_form_file(text, seed), seed)
                 for text in (A4_WP, A4_REWRITE)]
        assert forms_equal(*forms)

    yield "exprs parse a4-rewrite", [partial(parse_expression, t, table) for t in texts] * 16
    yield "equal a4-rewrite", [equal] * 16


def import_us(repeat):
    """Least cumulative microseconds of ``import clusterwp.cli`` over
    ``repeat`` interpreters: the sum of the ``-X importtime`` lines of
    ``clusterwp`` and ``clusterwp.cli`` imported at top level."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    totals = []
    for _ in range(repeat):
        report = subprocess.run([sys.executable, "-X", "importtime", "-c", "import clusterwp.cli"],
                                env=env, capture_output=True, text=True, check=True).stderr
        totals.append(sum(int(line.split("|")[1]) for line in report.splitlines()
                          if line.split("|")[-1] in (" clusterwp", " clusterwp.cli")))
    return min(totals)


def main(repeat=5):
    for label, calls in [*scalar_cases(), *laurent_cases(), *point_cases(),
                         *form_cases(), *equal_cases()]:
        print(f"{label:36s} {per_call_us(calls, repeat):10.2f} us/call")
    print(f"{'startup import clusterwp.cli':36s} {import_us(repeat):10.2f} us/call")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed passes per kernel; the least is printed")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    main(args.repeat)
