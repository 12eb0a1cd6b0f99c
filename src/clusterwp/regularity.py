"""Point analysis and local regularization of the chart form.

A point is a partial assignment of exact Gaussian-rational values to
generator names, checked and extended through the exchange relations of a
presentation or exploration.  Where chart variables vanish, the chart form's
written denominators blow up; the rewriting implemented here replaces each
singular row by an expression whose denominators avoid the vanishing set,
whenever no two vanishing variables are exchange-adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import (_ONE, GaussianParseError, GaussianRational, format_gaussian,
                    parse_gaussian, rank)
from .forms import SymbolicForm, _dlog_coefficients, _log_matrix
from .laurent import LaurentPoly, UnboundVariable, VarTable, _check_name
from .seeds import (
    MAX_SEEDS,
    InputFileError,
    NotFoundWithinBudget,
    Presentation,
    Seed,
    _budgeted,
    _chart,
    _content_lines,
    _exchange_monomials,
    _exchange_partner,
    _exchange_sum,
    _partner_names,
    _walk,
    _walk_namer,
    prime_namer,
)


class HypothesisViolated(Exception):
    """Two vanishing variables are exchange-adjacent; names the pair."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"vanishing variables {pair[0]} and {pair[1]} are "
                         f"exchange-adjacent (B entry nonzero)")


class NoForcedSuccessor(RuntimeError):
    """A vanishing index has no positive exchange entry into the vanishing
    set — the pattern cannot come from an actual point."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"no successor with positive exchange entry from "
                         f"index {index}")


@dataclass(frozen=True)
class AlgebraPoint:
    """Partial assignment name -> GaussianRational with an optional relation
    context (Presentation or Exploration)."""

    assignment: dict
    context: object = None

    def __post_init__(self):
        coerced = {name: GaussianRational.of(v) for name, v in
                   self.assignment.items()}
        object.__setattr__(self, "assignment", coerced)


def _exchange_value(rel, a):
    """P = P+ + P- of an exchange relation at an assignment ``a`` that
    assigns every factor."""
    return _exchange_sum(rel.pos, rel.neg, lambda name, e: a[name] ** e, _ONE)


def _binomial_values(a):
    """``value(rel)``: P of ``rel`` at the assignment ``a``, or None while a
    factor is unassigned.  Each binomial is evaluated once, when all of its
    factors are first assigned; ``a`` may grow but never reassigns a name,
    so a stored value stays valid for every relation that shares it."""
    memo = {}

    def value(rel):
        v = memo.get(rel.binomial)
        if v is None and all(name in a for factors in (rel.pos, rel.neg)
                             for name, _ in factors):
            v = memo[rel.binomial] = _exchange_value(rel, a)
        return v
    return value


def _factor_text(factors):
    if not factors:
        return "1"
    return "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in factors)


def _relation_text(rel):
    partner = rel.partner if rel.partner is not None else "?"
    return (f"{rel.var}*{partner} = "
            f"{_factor_text(rel.pos)} + {_factor_text(rel.neg)}")


def verify_point(point):
    """All violated, fully-evaluable constraints of the point's context:
    exchange relations that fail to hold and frozen variables assigned zero.
    Empty list means valid.  Over an exploration each distinct exchange
    equation f*f' = P is checked once: one product f*f' per equation and
    each binomial P evaluated at most once, however many relations share
    them.  The issues are still one per failing relation, in the relations'
    order, each with its own relation's text."""
    if point.context is None:
        raise ValueError("point has no relation context to verify against")
    issues = []
    a = point.assignment
    for name in point.context.frozen_names:
        v = a.get(name)
        if v is not None and not v:
            issues.append(f"frozen variable {name} must be nonzero")
    if isinstance(point.context, Presentation):
        for rel in point.context.relations:
            try:
                value = rel.evaluate(a)
            except UnboundVariable:     # a relation not fully assigned is skipped
                continue
            if value:
                issues.append(f"{rel.to_expr()} = {value}")
        return issues
    value = _binomial_values(a)
    equations, numbers = point.context._equations
    failed = {}  # equation number -> "f*f' != P"
    for n, rel in enumerate(equations):
        if rel.partner is None or rel.var not in a or rel.partner not in a:
            continue
        rhs = value(rel)
        if rhs is None:
            continue
        lhs = a[rel.var] * a[rel.partner]
        if lhs != rhs:
            failed[n] = f"{lhs} != {rhs}"
    if failed:
        issues += [f"{_relation_text(rel)} violated: {failed[n]}"
                   for rel, n in zip(point.context.relations(), numbers) if n in failed]
    return issues


def propagate_point(point, exploration):
    """Extend the assignment through the exchange relations to a fixpoint.

    A relation f*f' = P with f assigned nonzero and P evaluable determines
    f' = P/f; with f = 0 it only demands P = 0.  Returns the extended point
    and a list of inconsistencies (conflicting or violated relations).

    Each pass visits the relations in ``exploration.relations()`` order and
    passes repeat until one assigns nothing.  Each exchange binomial P is
    evaluated at most once per call, and a relation leaves later passes
    once f and P are known.  A directed equation, its P and f (which fix
    f'), acts at its first copy with f nonzero and P known, forming P/f
    once; its later copies could neither assign nor report anew and are
    skipped.  The assignment's order and the issues, a conflict reported
    once per partner and an f = 0 violation once per relation, are those
    of re-running every relation in every pass."""
    a = dict(point.assignment)
    issues = []
    conflicted = set()  # partners whose conflict is already reported
    acted = set()       # (binomial, f) of each directed equation that acted
    value = _binomial_values(a)
    live = exploration.relations()
    changed = True
    while changed:
        changed = False
        waiting = []
        for rel in live:
            fv = a.get(rel.var)
            rhs = None if fv is None else value(rel)
            if rhs is None:
                waiting.append(rel)
                continue
            if not fv:
                if rhs:
                    issues.append(f"{rel.var} = 0 but {_relation_text(rel)} "
                                  f"gives product {rhs}")
                continue
            if rel.partner is None or (rel.binomial, rel.var) in acted:
                continue
            acted.add((rel.binomial, rel.var))
            val = rhs * fv.inverse()
            cur = a.get(rel.partner)
            if cur is None:
                a[rel.partner] = val
                changed = True
            elif cur != val and rel.partner not in conflicted:
                conflicted.add(rel.partner)
                issues.append(f"{rel.partner} = {cur} conflicts with "
                              f"{_relation_text(rel)} giving {val}")
        live = waiting
    return AlgebraPoint(a, exploration), issues


@dataclass(frozen=True)
class VanishingPattern:
    """Mutable chart indices whose variables vanish at a point."""

    seed: Seed
    indices: frozenset

    def __post_init__(self):
        m = self.seed.matrix.m
        for i in self.indices:
            if not (1 <= i <= self.seed.matrix.n):
                raise ValueError(f"index {i} outside 1..{self.seed.matrix.n}")
            if i > m:
                raise ValueError(
                    f"index {i} is frozen; frozen variables are invertible "
                    f"and cannot vanish")

    def names(self):
        return tuple(self.seed.names[i - 1] for i in sorted(self.indices))


def vanishing_pattern(point, seed):
    """Vanishing set of a seed's chart at a fully-assigned point."""
    indices = set()
    for i, name in enumerate(seed.names, 1):
        v = point.assignment.get(name)
        if v is None:
            raise ValueError(f"chart variable {name} is not assigned")
        if not v:
            if i > seed.matrix.m:
                raise ValueError(f"frozen variable {name} vanishes; "
                                 f"not a point of the algebra")
            indices.add(i)
    return VanishingPattern(seed, frozenset(indices))


def adjacent_vanishing_pair(pattern):
    """Smallest pair a < b in the pattern with B_ab != 0, or None.  None is
    the hypothesis of the local regularization lemma."""
    idx = sorted(pattern.indices)
    b_entry = pattern.seed.matrix.b
    for pos, a in enumerate(idx):
        for b in idx[pos + 1:]:
            if b_entry(a, b) != 0:
                return (a, b)
    return None


def trace_vanishing_cycle(pattern, a, b):
    """Follow forced positive exchange entries inside the vanishing set until
    an index repeats; returns the directed cycle.

    Requires a, b in the pattern with B_ab > 0 (swap the arguments if the
    entry is negative)."""
    mat = pattern.seed.matrix
    if a not in pattern.indices or b not in pattern.indices:
        raise ValueError(f"{a} and {b} must both be in the vanishing set")
    if mat.b(a, b) <= 0:
        raise ValueError(f"need B_{a}{b} > 0, got {mat.b(a, b)}; "
                         f"swap the start pair")
    walk = [a, b]
    while True:
        current = walk[-1]
        successor = None
        for c in sorted(pattern.indices):
            if c != current and mat.b(current, c) > 0:
                successor = c
                break
        if successor is None:
            raise NoForcedSuccessor(current)
        if successor in walk:
            return tuple(walk[walk.index(successor):])
        walk.append(successor)


def regularize_at(seed, pattern, namer=prime_namer):
    """Rewrite the chart form so no written denominator meets the vanishing
    set.

    Each vanishing row i is replaced, via the exchange relation
    f_i f_i' = P_i, by

        [prod_{B_ij>0} f_j^{-B_ij}] * (df_i∧df_i' +
            f_i' * sum_{B_ij<0} B_ij df_i∧df_j / f_j),

    introducing the once-mutated generator f_i', named as partner i of
    ``_partner_names(seed, namer)``.  Non-singular terms are kept verbatim.
    Raises HypothesisViolated when two vanishing indices are exchange-adjacent."""
    if _chart(pattern.seed) != _chart(seed):
        raise ValueError("pattern was built over a different seed")
    pair = adjacent_vanishing_pair(pattern)
    if pair is not None:
        raise HypothesisViolated(pair)
    mat = seed.matrix
    v_sorted = sorted(pattern.indices)
    # the singular rows must match their column counterparts exactly for the
    # row-by-row replacement to account for every stored term
    for i in v_sorted:
        for j in range(1, mat.m + 1):
            if j != i and mat.b(i, j) != 0 and mat.b(j, i) != -mat.b(i, j):
                raise ValueError(
                    f"rows meeting the vanishing set must be skew-symmetric "
                    f"with their columns; B_{i}{j} = {mat.b(i, j)} but "
                    f"B_{j}{i} = {mat.b(j, i)}")

    chart_table = seed.chart()
    partners = _partner_names(seed, namer)
    extras = {partners[i - 1]: _exchange_partner(
        _chart(seed), i, lambda nm, e: LaurentPoly.monomial(chart_table, {nm: e}),
        chart_table) for i in v_sorted}

    sym_table = VarTable(seed.names + tuple(extras))
    terms = []
    for i in v_sorted:
        name_i, partner = seed.names[i - 1], partners[i - 1]
        pos, neg = _exchange_monomials(mat.rows[i - 1], seed.names)
        multiplier = {nm: -e for nm, e in pos}      # 1/P+
        terms.append((LaurentPoly.monomial(sym_table, multiplier), name_i, partner))
        terms += [(LaurentPoly.monomial(sym_table, {**multiplier, partner: 1, nm: -1}, -e),
                   name_i, nm) for nm, e in neg]
    terms += [(c, seed.names[a - 1], seed.names[b - 1])
              for (a, b), c in _dlog_coefficients(_log_matrix(seed), seed.names, sym_table)
              if {a, b}.isdisjoint(pattern.indices)]

    form = SymbolicForm(seed, extras, terms)
    banned = set(pattern.names())
    for coeff, _, _ in form.terms:
        low = zip(coeff.table.names, coeff.num.monomial_content())
        support = coeff.den.variables_used() | {nm for nm, e in low if e < 0}
        if support & banned:      # pragma: no cover - identity guarantees this
            raise RuntimeError("regularization left a vanishing denominator")
    return form


def constant_vanishing_oracle(indices):
    """Oracle asserting the same chart indices vanish in every seed (valid
    when the point kills every cluster variable)."""
    wanted = frozenset(indices)
    return lambda seed: VanishingPattern(seed, wanted)


def point_vanishing_oracle(point):
    """Oracle reading each visited seed's vanishing set off the point.  The
    point must assign every chart variable the search encounters."""
    return lambda seed: vanishing_pattern(point, seed)


# a regularizing search's default depth; `regularize --search` checks point names to it
SEARCH_DEPTH = 3


def find_regularizing_seed(start, v_oracle, max_depth=SEARCH_DEPTH, max_seeds=MAX_SEEDS,
                           namer=prime_namer):
    """Breadth-first search of the mutation graph for a seed whose chart
    admits the regularizing rewrite for its oracle-supplied vanishing set,
    among the first max_seeds distinct clusters in breadth-first order, none
    deeper than max_depth; raises NotFoundWithinBudget if none does.  One
    ``_walk_namer(start, namer)`` names the walk's variables, as ``explore``
    does, and the found form's generators, so a name means one variable."""
    name = _walk_namer(start, namer)
    for s, _ in _budgeted(_walk(start, max_depth, name), max_seeds, max_depth):
        try:
            return s, regularize_at(s, v_oracle(s), namer=name)
        except HypothesisViolated:
            pass
    raise NotFoundWithinBudget("regularizing seed", max_seeds, max_depth)


def tangent_dimension(presentation, point):
    """Dimension of the Zariski tangent space at a valid, fully-assigned
    point: (number of generators) - rank(Jacobian of the relations)."""
    names = presentation.table.names
    missing = [nm for nm in names if nm not in point.assignment]
    if missing:
        raise ValueError(f"unassigned generator(s): {', '.join(missing)}")
    issues = verify_point(AlgebraPoint(point.assignment, presentation))
    if issues:
        raise ValueError(f"not a point of the algebra: {issues[0]}")
    # most partials are the zero polynomial, whose value is exactly 0
    zero = GaussianRational(0)
    jacobian = [[p.evaluate(point.assignment) if p else zero for p in row]
                for row in presentation._jacobian]
    return len(names) - rank(jacobian)


@dataclass(frozen=True)
class DeepWitnessReport:
    """Per-cluster avoidance statuses plus the overall verdict: deep,
    deep-relative (window truncated), not-deep, or inconclusive."""

    cluster_status: tuple
    verdict: str

    @property
    def certified(self):
        return self.verdict == "deep"

    @property
    def relative(self):
        return self.verdict == "deep-relative"


def deep_witness(point, exploration):
    """Classify every explored cluster against the point: a cluster is
    avoided when some member variable is determined zero; the point is deep
    (relative to the exploration when truncated) when every cluster is
    avoided.  Each cluster is read against the point's set of zero names
    and its assigned names, with the statuses of reading every value."""
    a = point.assignment
    zeros = {nm for nm, v in a.items() if not v}
    statuses = tuple("has-determined-zero" if not zeros.isdisjoint(s.names)
                     else "all-determined-nonzero" if a.keys() >= set(s.names)
                     else "undetermined" for s in exploration.seeds)
    if "all-determined-nonzero" in statuses:
        verdict = "not-deep"
    elif "undetermined" in statuses:
        verdict = "inconclusive"
    elif exploration.truncated:
        verdict = "deep-relative"
    else:
        verdict = "deep"
    return DeepWitnessReport(statuses, verdict)


# ---------------------------------------------------------------------------
# point files
# ---------------------------------------------------------------------------

PointFileError = InputFileError


def parse_point_file(text, filename="<input>"):
    """Parse lines ``<name> = <gaussian-rational-literal>`` into an
    assignment dict.  ``#`` starts a comment."""
    values = {}
    for no, stripped in _content_lines(text):
        if "=" not in stripped:
            raise PointFileError(filename, no,
                                 "expected '<name> = <value>'")
        name, _, literal = stripped.partition("=")
        name = name.strip()
        literal = literal.strip()
        try:
            _check_name(name)
        except ValueError:
            raise PointFileError(filename, no, f"bad variable name {name!r}") from None
        if name in values:
            raise PointFileError(filename, no, f"duplicate assignment to {name}")
        try:
            values[name] = parse_gaussian(literal)
        except GaussianParseError:
            raise PointFileError(
                filename, no,
                f"{literal!r} is not a Gaussian rational literal") from None
    return values


def _emit_point(point):
    """The point file of ``point``'s assignment; parsing it gives it back."""
    return "".join(f"{name} = {format_gaussian(value)}\n"
                   for name, value in point.assignment.items())
