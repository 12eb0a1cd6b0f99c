"""Kähler 2-form calculus on cluster charts.

A form's chart is its seed's matrix and names (``seeds._chart``), so
seeds that differ only in g- or c-vectors carry the same forms.

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
summing over all ordered pairs would double it.  In dlog coordinates it is
sum_{i<j} W_ij dlog f_i wedge dlog f_j with the skew integer matrix W of
``_log_matrix``, the one owner of that convention; its coefficients are the
Laurent monomials W_ij f_i^-1 f_j^-1.

``check_invariance`` carries a form with constant dlog coefficients as its
matrix W.  Along mu_k such a form keeps constant coefficients exactly when
row k of W is proportional to row k of B, the compatibility condition of
Gekhtman-Shapiro-Vainshtein (*Cluster algebras and Poisson geometry*,
arXiv math/0208033; *Cluster algebras and Weil-Petersson forms*, arXiv
math/0309138), and ``_carry`` then mutates W in integers.  Only a form that
loses constant coefficients is pulled back as Laurent coefficients.
"""

from __future__ import annotations

import itertools
import re

from .exprs import ExprError, parse_expression
from .laurent import (
    Inhomogeneous, LaurentError, LaurentPoly, NotLaurent, RationalFn, VarTable,
    _check_name)
from .seeds import InputFileError, _chart, _content_lines, _exchange_partner


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
    if _chart(a.chart) != _chart(b.chart):
        raise ValueError("chart mismatch: pull back to a common chart first")


class ChartForm:
    """2-form in a seed's chart: slot (i, j), i < j, holds the df_i∧df_j
    coefficient as a RationalFn in the chart variables.  Zero coefficients
    are pruned at construction.  The form lives on the matrix and names of
    its seed ``chart``."""

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

    @property
    def terms(self):
        """The form as terms (c, f_i, f_j), in slot order."""
        names = self.chart.names
        return tuple((c, names[i - 1], names[j - 1])
                     for (i, j), c in sorted(self.coeffs.items()))

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


def _log_matrix(seed):
    """The chart form's skew integer matrix W in dlog coordinates, omega =
    sum_{i<j} W_ij dlog f_i wedge dlog f_j: W_ij = B_ij for i < j and i
    mutable, W_ji = -W_ij, every other entry 0."""
    matrix = seed.matrix
    w = [[0] * matrix.n for _ in range(matrix.n)]
    for i, row in enumerate(matrix.rows):
        for j in range(i + 1, matrix.n):
            w[i][j], w[j][i] = row[j], -row[j]
    return tuple(map(tuple, w))


def _dlog_coefficients(w, names, table):
    """The terms ``((i, j), W_ij f_i^-1 f_j^-1)`` of the form with dlog
    matrix ``w`` for W_ij != 0, i < j, in slot order, over a ``table``
    holding the ``names``."""
    for i, j in itertools.combinations(range(len(names)), 2):
        if w[i][j]:
            yield (i + 1, j + 1), LaurentPoly.monomial(
                table, {names[i]: -1, names[j]: -1}, w[i][j]).as_rational()


def _wp_coefficients(seed, table):
    """The chart form's terms, over a ``table`` holding the seed's names."""
    return _dlog_coefficients(_log_matrix(seed), seed.names, table)


def _dlog_form(chart, w):
    """The ChartForm on ``chart`` with dlog matrix ``w``."""
    return ChartForm(chart, dict(_dlog_coefficients(w, chart.names, chart.chart())))


def wp_form(seed):
    """The Weil-Petersson chart form of a seed."""
    return _dlog_form(seed, _log_matrix(seed))


def _carry(w, row, k):
    """The form with dlog matrix ``w`` pushed to mu_k of a chart whose
    matrix row k is ``row``, as a dlog matrix; None where it stops having
    constant coefficients.

    With x_k = P/x_k', P = P+ + P-, dlog x_k = dlog P - dlog x_k' and dlog P
    = sum_l [b_l]_+ dlog x_l - (P-/P) sum_l b_l dlog x_l, so the push has
    constant coefficients exactly when row k of W is proportional to b
    (Gekhtman-Shapiro-Vainshtein's compatibility), and then W'_kj = -W_kj
    and W'_lj = W_lj + [b_l]_+ W_kj - [b_j]_+ W_kl for l, j != k."""
    kk = k - 1
    wk = w[kk]
    if any(row[l] * wk[j] != row[j] * wk[l]
           for l, j in itertools.combinations(range(len(row)), 2)):
        return None
    pos = [max(b, 0) for b in row]
    out = [[w_lj + pos[l] * wk[j] - pos[j] * wk[l] for j, w_lj in enumerate(w_l)]
           for l, w_l in enumerate(w)]
    out[kk] = [-x for x in wk]
    for l, x in enumerate(wk):
        out[l][kk] = x
    return tuple(map(tuple, out))


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
    through its generator's expansion: d(g) = sum_i (dg/df_i) df_i.  The
    chart is a seed with the matrix and names of the form's seed."""
    if _chart(chart) != _chart(form.chart):
        raise ValueError("chart mismatch: form was built over a different seed")
    return _reduce(form.terms, form.gens, chart)


def _reduce(terms, gens, chart):
    """The ChartForm of the terms c·dg∧dh, where ``gens`` maps every name
    that the terms or their coefficients use to its Laurent expansion in
    the chart.  The wedge of slot (i, j) is ∂_i g ∂_j h - ∂_j g ∂_i h, and
    of its two products only those whose factors both have terms are
    formed (a chart variable's partials are a unit vector)."""
    chart_table = chart.chart()
    bindings = {nm: exp.as_rational() for nm, exp in gens.items()}
    partials = {nm: [exp.partial(v) for v in chart.names]
                for nm, exp in gens.items()}
    slots = {}
    for coeff, g, h in terms:
        c = coeff.substitute(bindings, chart_table)
        if c.num.is_zero:
            continue
        pg, ph = partials[g], partials[h]
        for i, j in itertools.combinations(range(len(chart.names)), 2):
            left = pg[i] * ph[j] if pg[i] and ph[j] else None
            right = pg[j] * ph[i] if pg[j] and ph[i] else None
            if right is None:
                wedge = left
            else:
                wedge = -right if left is None else left - right
            if wedge is None or wedge.is_zero:
                continue
            slot = (i + 1, j + 1)
            contribution = c * wedge
            slots[slot] = slots[slot] + contribution if slot in slots else contribution
    return ChartForm(chart, slots)


def pullback(form, target, k):
    """Pull a ChartForm on the chart mu_k(target), any name at slot k, back to
    target's chart by substituting f_k' = P_k/f_k and fixing the others."""
    partner_name = form.chart.names[k - 1] if 0 < k <= len(form.chart.names) else None
    if _chart(form.chart) != _chart(target, k, partner_name):
        raise ValueError(f"chart mismatch: form is not on a mutation of this "
                         f"seed at direction {k}")
    if partner_name in target.names:
        raise ValueError(f"duplicate variable name: {partner_name!r}")
    chart_table = target.chart()
    gens = {nm: LaurentPoly.variable(chart_table, nm) for nm in target.names}
    gens[partner_name] = _exchange_partner(_chart(target), k, lambda nm, e: gens[nm] ** e,
                                           chart_table)
    return _reduce(form.terms, gens, target)


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
    [(sequence, passed)] in lexicographic order by depth.  Each seed reached
    is checked once, by pushing its parent's form forward one edge and
    comparing with its own form; a seed's g-vectors fix its cluster
    variables, so the push-forward depends on the seed and not on the path.

    A form with constant coefficients in dlog coordinates is carried as its
    skew integer matrix (``_carry``), compared with the seed's own
    ``_log_matrix``; a dlog basis is a basis over the function field, so
    that comparison is exact.  Only a form that stops having constant
    coefficients goes through ``pullback`` as a ChartForm, and one that
    pulls back equal to the seed's own form is carried as its matrix again."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    pushed = {seed: (_log_matrix(seed), True)}
    level = {(): seed}
    report = []
    for d in range(1, depth + 1):
        parents, level = level, {}
        for ks in itertools.product(range(1, seed.matrix.m + 1), repeat=d):
            s, k = parents[ks[:-1]], ks[-1]
            t = level[ks] = s.mutated(k)
            if t not in pushed:
                pushed[t] = _push(pushed[s][0], s, t, k)
            report.append((ks, pushed[t][1]))
    return report


def _push(form, s, t, k):
    """The pair (form pushed from s to t = mu_k(s), passed) of a form on s,
    a dlog matrix or a ChartForm.  A passing form is t's own dlog matrix."""
    own = _log_matrix(t)
    if isinstance(form, tuple):
        carried = _carry(form, s.matrix.rows[k - 1], k)
        if carried is not None:
            return carried, carried == own
        form = _dlog_form(s, form)
    form = pullback(form, t, k)
    return (own, True) if forms_equal(form, _dlog_form(t, own)) else (form, False)


def form_degree(form, weights):
    """Common weighted degree of all terms, counting c·df_i∧df_j as
    deg(c) + w_i + w_j - 2 (differentials lower degree by one).  Raises
    Inhomogeneous when terms disagree."""
    if not form.coeffs:
        raise ValueError("the zero form has no degree")
    distinct = sorted({c.weighted_degree(weights) + weights[g] + weights[h] - 2
                       for c, g, h in form.terms})
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
            _check_name(name, names)
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
    gens = form.gens.items() if isinstance(form, SymbolicForm) else ()
    lines = [f"gen {nm} = {exp.to_expr()}" for nm, exp in gens
             if nm not in form.chart.names]
    lines += [f"{c.to_expr()} ; {g} ; {h}" for c, g, h in form.terms]
    return "\n".join(lines) + "\n" if lines else ""
