#!/usr/bin/env python3
"""Guided tour of the four built-in examples.

Runs the whole pipeline on each catalog entry — mutation, census,
presentation, the chart 2-form, invariance, regularization, and the
deep-point machinery — printing exact values along the way.  Everything
here goes through the same public API the CLI uses.

Usage:  python3 scripts/tour.py
"""

from fractions import Fraction

from clusterwp import (
    AlgebraPoint,
    HypothesisViolated,
    NotFoundWithinBudget,
    VanishingPattern,
    catalog,
    check_invariance,
    constant_vanishing_oracle,
    deep_witness,
    emit_form_file,
    emit_seed_file,
    find_regularizing_seed,
    form_degree,
    form_difference,
    forms_equal,
    propagate_point,
    reduce_to_chart,
    regularize_at,
    tangent_dimension,
    trace_vanishing_cycle,
    verify_point,
    wp_form,
)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def show_form(label, form):
    print(f"{label}:")
    for line in emit_form_file(form).splitlines():
        print(f"    {line}")


def tour_sl2():
    banner("sl2 — one mutable variable, two coefficients")
    entry = catalog("sl2")
    print(emit_seed_file(entry.seed), end="")

    print("\nThe exchange graph has just two clusters:")
    for no, s in enumerate(entry.exploration.seeds, 1):
        print(f"    cluster {no}: {' '.join(s.names)}")

    pres = entry.presentation
    print("\nPresentation:", ", ".join(pres.table.names))
    for rel in pres.relations:
        print(f"    {rel.to_expr()} = 0")

    show_form("\nChart 2-form", wp_form(entry.seed))
    show_form("Alternate expression (mixed charts)", entry.forms["regular"])
    reduced = reduce_to_chart(entry.forms["regular"], entry.seed)
    print(f"    ... reduces to the chart form: "
          f"{forms_equal(reduced, wp_form(entry.seed))}")

    deep = entry.points["deep"]
    values = ", ".join(f"{k}={v}" for k, v in deep.assignment.items())
    print(f"\nDeep point ({values}):")
    print(f"    verifies: {verify_point(deep) == []}")
    print(f"    tangent dimension: {tangent_dimension(pres, deep)} "
          f"(generic fibre dimension is 3)")


def tour_a3():
    banner("a3 — hexagon diagonals, fourteen triangulations")
    entry = catalog("a3")
    print(emit_seed_file(entry.seed), end="")

    ex = entry.exploration
    print(f"\nCensus: {len(ex.seeds)} clusters, {ex.n_variables} variables, "
          f"truncated={ex.truncated}")
    print("Variables:", " ".join(sorted(ex.variables)))

    report = check_invariance(entry.seed, 2)
    print(f"\nInvariance to depth 2: {sum(ok for _, ok in report)}"
          f"/{len(report)} sequences pass")

    deep = entry.points["deep"]
    pattern = VanishingPattern(entry.seed, frozenset({1, 3}))
    print("\nRegularize at the short-diagonal vanishing set {x13, x15}:")
    form = regularize_at(entry.seed, pattern, namer=entry.namer)
    show_form("    rewritten form", form)
    print(f"    reduces back to the chart form: "
          f"{forms_equal(reduce_to_chart(form, entry.seed), wp_form(entry.seed))}")

    witness = deep_witness(deep, ex)
    print(f"\nDeep-point witness over the full census: {witness.verdict}")
    print(f"Tangent dimension there: "
          f"{tangent_dimension(entry.presentation, deep)}")


def tour_affine():
    banner("affine-a11 — the recurrence x_{k-1} x_{k+1} = x_k^2 + 1")
    entry = catalog("affine-a11")
    print(emit_seed_file(entry.seed), end="")

    window = entry.exploration
    print(f"\nIndex-window walk over [-2, 5]: {len(window.seeds)} clusters, "
          f"truncated={window.truncated}")
    for no, s in enumerate(window.seeds, 1):
        print(f"    cluster {no}: {' '.join(s.names)}")

    p0 = entry.points["p0"]
    print("\nStaircase point p0 (period 4: i, 0, -i, 0):")
    print("    " + ", ".join(f"{k}={v}" for k, v in p0.assignment.items()))
    print(f"    verifies: {verify_point(p0) == []}")
    full, issues = propagate_point(p0, window)
    print(f"    propagation finds no contradiction: {issues == []}")
    print(f"    witness verdict: {deep_witness(full, window).verdict} "
          f"(the walk is a window, so the claim is relative)")

    show_form("\nChart 2-form", wp_form(entry.seed))
    candidate = entry.forms["candidate"]
    show_form("Globally-regular candidate", candidate)
    reduced = reduce_to_chart(candidate, entry.seed)
    show_form("    reduces to", reduced)
    print(f"    equal to the chart form: "
          f"{forms_equal(reduced, wp_form(entry.seed))}")
    show_form("    difference", form_difference(wp_form(entry.seed), reduced))
    half = wp_form(entry.seed).scaled(Fraction(1, 2))
    print(f"    ... exactly half the form: {forms_equal(reduced, half)}")


def tour_markov():
    banner("markov — the cyclic chart with doubled exchanges")
    entry = catalog("markov")
    print(emit_seed_file(entry.seed), end="")

    ones = {name: 1 for name in entry.seed.names}
    print(f"\nGraded degree of the 2-form (all weights 1): "
          f"{form_degree(wp_form(entry.seed), ones)}")

    pattern = VanishingPattern(entry.seed, frozenset({1, 2, 3}))
    print("\nAll three variables vanish at the origin point.")
    try:
        regularize_at(entry.seed, pattern)
    except HypothesisViolated as exc:
        print(f"    local rewrite refused: adjacent vanishing pair {exc.pair}")
    print(f"    forced vanishing cycle: {trace_vanishing_cycle(pattern, 1, 2)}")
    try:
        find_regularizing_seed(entry.seed, constant_vanishing_oracle({1, 2, 3}),
                               max_depth=3, max_seeds=200)
    except NotFoundWithinBudget:
        print("    no chart within mutation depth 3 admits the rewrite")

    origin = entry.points["p0"]
    witness = deep_witness(origin, entry.exploration)
    print(f"\nOrigin-point witness over the depth-2 exploration: "
          f"{witness.verdict}")


def main():
    tour_sl2()
    tour_a3()
    tour_affine()
    tour_markov()
    print()


if __name__ == "__main__":
    main()
