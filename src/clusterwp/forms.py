"""Kähler 2-form calculus on cluster charts.

Two representations:

* ChartForm — a 2-form written in one seed's coordinates, stored sparsely as
  coefficients on slots (i, j) with i < j (antisymmetry is representational).
* SymbolicForm — a sum of terms c·dg∧dh over named generators, each
  generator carrying a Laurent expansion in a designated chart.  Reduction
  pushes d through the expansions by formal partials and collects wedge
  products back into chart slots.

The chart form of a seed is

    omega = sum_{i<j, i<=m} B_ij/(f_i f_j) df_i wedge df_j,

the restricted-sum convention fixed by the printed rank-2 value 2/(x0 x1):
summing over all ordered pairs would double it.
"""

from __future__ import annotations

import itertools
import re

from .exprs import ExprError, parse_expression
from .laurent import LaurentError, LaurentPoly, NotLaurent, RationalFn, VarTable
from .seeds import InputFileError, _content_lines, _exchange_partner, mutate_matrix


FormFileError = InputFileError


def _coefficient(value, table, what):
    """A coefficient as a RationalFn over ``table``; ``what`` names it in
    the foreign-table error."""
    c = RationalFn._lift(value, table)
    if c is None:
        raise TypeError(f"cannot treat {value!r} as an exact rational")
    if c.table != table:
        raise ValueError(f"{what} uses a foreign table")
    return c


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ValueError("chart mismatch: pull back to a common chart first")


class ChartForm:
    """2-form in a seed's chart: slot (i, j), i < j, holds the df_i∧df_j
    coefficient as a RationalFn in the chart variables.  Zero coefficients
    are pruned at construction."""

    def __init__(self, chart, coeffs):
        self.chart = chart
        self.table = chart.chart()
        clean = {}
        n = chart.matrix.n
        for slot, c in coeffs.items():
            i, j = slot
            if not (1 <= i < j <= n):
                raise ValueError(f"bad slot {slot}: need 1 <= i < j <= {n}")
            c = _coefficient(c, self.table, f"slot {slot} coefficient")
            if not c.num.is_zero:
                clean[slot] = c
        self.coeffs = clean

    def scaled(self, factor):
        return ChartForm(self.chart,
                         {slot: c * factor for slot, c in self.coeffs.items()})

    def plus(self, other):
        _same_chart(self, other)
        merged = dict(self.coeffs)
        for slot, c in other.coeffs.items():
            merged[slot] = merged[slot] + c if slot in merged else c
        return ChartForm(self.chart, merged)

    def __eq__(self, other):
        if not isinstance(other, ChartForm):
            return NotImplemented
        return forms_equal(self, other)

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"{slot}: {c.to_expr()}" for slot, c in
                          sorted(self.coeffs.items()))
        return f"<ChartForm {{{inner}}}>"


def wp_form(seed):
    """The Weil-Petersson chart form of a seed."""
    table = seed.chart()
    coeffs = {}
    for i in range(1, seed.matrix.m + 1):
        fi = LaurentPoly.variable(table, seed.names[i - 1])
        for j in range(i + 1, seed.matrix.n + 1):
            b = seed.matrix.b(i, j)
            if b == 0:
                continue
            fj = LaurentPoly.variable(table, seed.names[j - 1])
            coeffs[(i, j)] = RationalFn(LaurentPoly.constant(table, b), fi * fj)
    return ChartForm(seed, coeffs)


class SymbolicForm:
    """Sum of terms c·dg∧dh over named generators with chart expansions.

    ``extra_gens`` maps generator names beyond the chart variables to their
    Laurent expansions in the chart; chart variables are generators
    automatically.  Coefficients live over the table of all generator names.
    Terms with g = h wedge to zero and are dropped.
    """

    def __init__(self, chart, extra_gens, terms):
        self.chart = chart
        chart_table = chart.chart()
        names = list(chart.names)
        gens = {nm: LaurentPoly.variable(chart_table, nm) for nm in chart.names}
        for name, expansion in extra_gens.items():
            if not isinstance(expansion, LaurentPoly) or expansion.table != chart_table:
                raise ValueError(
                    f"expansion of {name!r} must be Laurent in the chart variables")
            names.append(name)
            gens[name] = expansion
        self.table = VarTable(names)   # validates fresh, well-formed names
        self.gens = gens
        clean = []
        for coeff, g, h in terms:
            for nm in (g, h):
                if nm not in gens:
                    raise ValueError(f"unknown generator {nm!r}")
            coeff = _coefficient(coeff, self.table, "term coefficient")
            if g != h:
                clean.append((coeff, g, h))
        self.terms = tuple(clean)

    def __repr__(self):
        inner = " + ".join(f"({c.to_expr()})d{g}^d{h}" for c, g, h in self.terms)
        return f"<SymbolicForm {inner or '0'}>"


def reduce_to_chart(form, chart):
    """Express a SymbolicForm in the chart by expanding each differential
    through its generator's expansion: d(g) = sum_i (dg/df_i) df_i."""
    if chart != form.chart:
        raise ValueError("chart mismatch: form was built over a different seed")
    return _reduce(form.terms, form.gens, chart)


def _reduce(terms, gens, chart):
    """The ChartForm of the terms c·dg∧dh, where ``gens`` maps every name
    that the terms or their coefficients use to its Laurent expansion in
    the chart."""
    chart_table = chart.chart()
    bindings = {nm: RationalFn(exp) for nm, exp in gens.items()}
    partials = {nm: [exp.partial(v) for v in chart.names]
                for nm, exp in gens.items()}
    slots = {}
    for coeff, g, h in terms:
        c = coeff.substitute(bindings, chart_table)
        if c.num.is_zero:
            continue
        pg, ph = partials[g], partials[h]
        for i, j in itertools.combinations(range(len(chart.names)), 2):
            wedge = pg[i] * ph[j] - pg[j] * ph[i]
            if wedge.is_zero:
                continue
            slot = (i + 1, j + 1)
            contribution = c * wedge
            slots[slot] = slots[slot] + contribution if slot in slots else contribution
    return ChartForm(chart, slots)


def pullback(form, target, k):
    """Pull a ChartForm on the chart mu_k(target) back to target's chart by
    substituting f_k' = P_k/f_k and fixing the other variables."""
    if form.chart.matrix != mutate_matrix(target.matrix, k) or form.chart.names[:k - 1] != \
            target.names[:k - 1] or form.chart.names[k:] != target.names[k:]:
        raise ValueError(f"chart mismatch: form is not on a mutation of this "
                         f"seed at direction {k}")
    partner_name = form.chart.names[k - 1]
    if partner_name in target.names:
        raise ValueError(f"duplicate variable name: {partner_name!r}")
    chart_table = target.chart()
    gens = {nm: LaurentPoly.variable(chart_table, nm) for nm in target.names}
    gens[partner_name] = _exchange_partner(target.matrix, k, list(gens.values()),
                                           chart_table)
    terms = [(c, form.chart.names[i - 1], form.chart.names[j - 1])
             for (i, j), c in sorted(form.coeffs.items())]
    return _reduce(terms, gens, target)


def forms_equal(a, b):
    """Coefficient-wise equality (RationalFn cross-multiplication) of two
    forms on the same chart."""
    _same_chart(a, b)
    if set(a.coeffs) != set(b.coeffs):
        return False
    return all(a.coeffs[slot] == b.coeffs[slot] for slot in a.coeffs)


def form_difference(a, b):
    return a.plus(b.scaled(-1))


def check_invariance(seed, depth):
    """Verify, for every mutation sequence of length 1..depth, that the
    mutated chart's form pulls back to this chart's form.  Returns
    [(sequence, passed)] in lexicographic order by depth.  Each prefix's
    form is pushed forward one edge and compared with the next chart's own
    form; below a passing prefix that is memoized by edge (whole seed, k)."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    level = {(): (seed, wp_form(seed), True)}
    edges = {}
    report = []
    for d in range(1, depth + 1):
        parents, level = level, {}
        for ks in itertools.product(range(1, seed.matrix.m + 1), repeat=d):
            s, form, parent_ok = parents[ks[:-1]]
            k = ks[-1]
            t = s.mutated(k)
            step = edges.get((s, k)) if parent_ok else None
            if step is None:
                pushed, own = pullback(form, t, k), wp_form(t)
                step = (own, True) if forms_equal(pushed, own) else (pushed, False)
                if parent_ok:
                    edges[(s, k)] = step
            level[ks] = (t, *step)
            report.append((ks, step[1]))
    return report


def form_degree(form, weights):
    """Common weighted degree of all terms, counting c·df_i∧df_j as
    deg(c) + w_i + w_j - 2 (differentials lower degree by one).  Raises
    Inhomogeneous when terms disagree."""
    from .laurent import Inhomogeneous
    if not form.coeffs:
        raise ValueError("the zero form has no degree")
    degrees = {}
    for (i, j), c in sorted(form.coeffs.items()):
        ni, nj = form.chart.names[i - 1], form.chart.names[j - 1]
        degrees[(i, j)] = c.weighted_degree(weights) + weights[ni] + weights[nj] - 2
    distinct = sorted(set(degrees.values()))
    if len(distinct) > 1:
        raise Inhomogeneous(f"term degrees disagree: {distinct}")
    return distinct[0]


# ---------------------------------------------------------------------------
# form files
# ---------------------------------------------------------------------------

_GEN_RE = re.compile(r"^gen\s+(\S+)\s*=\s*(.+)$")


def parse_form_file(text, chart, filename="<input>"):
    """Parse the line-oriented form format::

        gen x24 = (x14 + 1)/x13      # optional expansion headers
        x14^-1 ; x13 ; x24           # coeff-expr ; gen ; gen

    Generator expansions may reference chart variables and earlier gens and
    must be Laurent in the chart.  ``#`` starts a comment.
    """
    chart_table = chart.chart()
    gen_lines = []
    term_lines = []
    for no, stripped in _content_lines(text):
        first = stripped.split(None, 1)[0]
        if first == "gen":
            match = _GEN_RE.match(stripped)
            if match is None:
                raise FormFileError(filename, no,
                                    "malformed gen line (want: gen <name> = <expr>)")
            gen_lines.append((no, match.group(1), match.group(2)))
        else:
            term_lines.append((no, stripped))

    names = list(chart.names)
    gens = {}
    bindings = {nm: RationalFn(LaurentPoly.variable(chart_table, nm))
                for nm in chart.names}
    for no, name, expr_text in gen_lines:
        try:
            table_so_far = VarTable(names + [name])
        except ValueError as exc:
            raise FormFileError(filename, no, str(exc)) from None
        try:
            value = parse_expression(expr_text, VarTable(names))
            expansion = value.substitute(bindings, chart_table).as_laurent()
        except NotLaurent:
            raise FormFileError(
                filename, no,
                f"expansion of {name!r} is not Laurent in the chart") from None
        except (ExprError, LaurentError) as exc:
            raise FormFileError(filename, no, str(exc)) from None
        names.append(name)
        gens[name] = expansion
        bindings[name] = RationalFn(expansion)
        del table_so_far

    table = VarTable(names)
    zero_gen = any(exp.is_zero for exp in gens.values())
    terms = []
    for no, line in term_lines:
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise FormFileError(
                filename, no, "term line must be '<coeff-expr> ; <gen> ; <gen>'")
        expr_text, g, h = parts
        for nm in (g, h):
            if nm not in names:
                raise FormFileError(filename, no, f"unknown generator {nm!r}")
        try:
            coeff = parse_expression(expr_text, table)
            # only a non-monomial denominator or a gen equal to 0 can vanish
            if coeff and (len(coeff.den.terms) > 1 or zero_gen):
                low = [min(e, 0) for e in coeff.num.monomial_content()]
                RationalFn(LaurentPoly.monomial(table, low), coeff.den).substitute(
                    bindings, chart_table)
        except (ExprError, LaurentError) as exc:
            raise FormFileError(filename, no, str(exc)) from None
        terms.append((coeff, g, h))
    return SymbolicForm(chart, gens, terms)


def emit_form_file(form):
    """Canonical text form; emit . parse . emit is the identity on bytes."""
    lines = []
    if isinstance(form, ChartForm):
        for (i, j), c in sorted(form.coeffs.items()):
            lines.append(f"{c.to_expr()} ; {form.chart.names[i - 1]} ; "
                         f"{form.chart.names[j - 1]}")
    else:
        chart_names = set(form.chart.names)
        for nm in form.table.names:
            if nm not in chart_names:
                lines.append(f"gen {nm} = {form.gens[nm].to_expr()}")
        for c, g, h in form.terms:
            lines.append(f"{c.to_expr()} ; {g} ; {h}")
    return "\n".join(lines) + "\n" if lines else ""
