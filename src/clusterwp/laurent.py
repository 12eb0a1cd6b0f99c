"""Sparse multivariate Laurent polynomials and rational functions over Q(i).

Representation choices that the rest of the package leans on:

* A ``VarTable`` fixes an ordered tuple of variable names; every polynomial
  carries its table and cross-table arithmetic is an error, never a silent
  union.
* Terms map dense exponent vectors (tuples of ints, negative allowed) to
  nonzero Gaussian-rational coefficients, so emptiness <=> the zero
  polynomial.  ``LaurentPoly(table, terms)`` is the one gate for values
  from outside: it checks each exponent vector's width and ``int``
  entries, zero coefficient or not, coerces every coefficient and prunes
  zeros.  Ring operations (``+``,
  ``-``, ``*``, ``**``, ``shifted``, ``partial``, ``divide_exact``) build
  their results with the trusted ``_trusted``, which takes their terms as
  they are; an operation that can cancel terms drops the zeros itself.
* ``RationalFn`` is an unreduced num/den pair.  There is deliberately *no*
  multivariate gcd: equality is decided by cross-multiplication, and the
  only simplification ever applied is moving the denominator's monomial
  content into the numerator (so monomial denominators normalize to 1).
  Every denominator is thus *normal*, and ring operations on fractions
  keep it so without renormalizing (see ``RationalFn``).
  Exact division exists for the one case the theory needs: deciding whether
  a fraction is a Laurent polynomial.  It runs over Gaussian integers: the
  remainder and the divisor are ``(a, b)`` pairs over one common
  denominator each, the remainder is rescaled when a leading coefficient
  does not divide exactly, and its grlex-leading term comes from a heap
  with lazy deletion (after Monagan-Pearce, *Sparse polynomial division
  using a heap*, J. Symb. Comp. 2011).  Squares, which serve ``**``, run
  on the same representation; other products stay on Q(i) objects.
* The monomial order is graded lexicographic in table order; it makes
  single-divisor exact division deterministic and terminating once the
  monomial content has been stripped.
"""

from __future__ import annotations

import re as _re
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, sub
from typing import Iterator, Mapping

from clusterwp.exact import (
    _ONE, GaussianRational, _coerce, _gaussian_integers, _part_strs, _power, _reduced)


class LaurentError(Exception):
    """Base class for algebraic failure modes in this module."""


class NotDivisible(LaurentError):
    """Exact polynomial division has a nonzero remainder."""


NotLaurent = NotDivisible   # as_laurent's verdict: the fraction is not Laurent


class Inhomogeneous(LaurentError):
    """Terms carry different weighted degrees."""


class EvaluationError(LaurentError):
    """Base class for point-evaluation failures."""


class DenominatorZero(EvaluationError):
    """A denominator evaluated (or substituted) to zero."""


class NegativePowerOfZero(EvaluationError):
    """A negative exponent met a zero base during evaluation."""


class UnboundVariable(EvaluationError):
    """A variable occurring in the expression has no assigned value."""


_IDENT_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_']*")   # applied with fullmatch
_RESERVED = frozenset({"i"})    # the imaginary unit of the expression grammar
_INT = frozenset({int})         # the one type of an exponent entry


def _check_name(name, taken=()):
    """``name`` if it may name a variable and is not in ``taken``, else ValueError."""
    if not _IDENT_RE.fullmatch(name):
        raise ValueError(f"invalid variable name: {name!r}")
    if name in _RESERVED:
        raise ValueError(f"variable name {name!r} is reserved for the imaginary unit")
    if name in taken:
        raise ValueError(f"duplicate variable name: {name!r}")
    return name


class VarTable:
    """Ordered, duplicate-free tuple of variable names.

    The name ``i`` is reserved for the imaginary unit in the expression
    grammar and is rejected here so charts can always be parsed back.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        seen = set()
        for n in names:
            seen.add(_check_name(n, seen))
        self.names = names
        self._index = {n: k for k, n in enumerate(names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}; table has {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({', '.join(self.names)})"


def _grlex(exps) -> tuple:
    return (sum(exps), exps)


class LaurentPoly:
    """Sparse Laurent polynomial over Q(i) on a fixed VarTable."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[tuple, object]):
        width = len(table)
        clean = {}
        for exps, coeff in terms.items():
            t = tuple(exps)
            if len(t) != width or not _INT.issuperset(map(type, t)):
                raise ValueError(
                    f"exponent vector {t} is not {width} ints, one per variable")
            c = GaussianRational.of(coeff)
            if c:
                clean[t] = c
        self.table = table
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, table: VarTable) -> "LaurentPoly":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VarTable, value) -> "LaurentPoly":
        return cls(table, {(0,) * len(table): value})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "LaurentPoly":
        exps = [0] * len(table)
        exps[table.index(name)] = 1
        return _trusted(table, {tuple(exps): _ONE})

    @classmethod
    def monomial(cls, table: VarTable, exps, coeff=1) -> "LaurentPoly":
        """Build coeff * prod(x_v^e_v); exps is a name->exp map or a vector."""
        if isinstance(exps, Mapping):
            vec = [0] * len(table)
            for name, e in exps.items():
                vec[table.index(name)] = e
            exps = tuple(vec)
        return cls(table, {tuple(exps): coeff})

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def variables_used(self) -> set:
        used = set()
        for exps in self.terms:
            for name, e in zip(self.table.names, exps):
                if e:
                    used.add(name)
        return used

    # -- structure -------------------------------------------------------

    def leading_exponents(self) -> tuple:
        """Exponent vector of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex)

    def monomial_content(self) -> tuple:
        """Per-variable minimum exponent across all terms."""
        if not self.terms:
            raise ValueError("zero polynomial has no monomial content")
        it = iter(self.terms)
        content = list(next(it))
        for exps in it:
            for k, e in enumerate(exps):
                if e < content[k]:
                    content[k] = e
        return tuple(content)

    def shifted(self, delta) -> "LaurentPoly":
        """Multiply by the monomial with exponent vector delta."""
        return _trusted(self.table, {
            tuple(map(add, exps, delta)): c for exps, c in self.terms.items()})

    # -- ring operations -------------------------------------------------

    def _require_same(self, other: "LaurentPoly"):
        if self.table != other.table:
            raise ValueError(
                f"variable tables differ: {self.table!r} vs {other.table!r}")

    def __add__(self, other):
        if type(other) is not LaurentPoly:
            if (c := _coerce(other)) is None:
                return NotImplemented
            other = LaurentPoly.constant(self.table, c)
        if other.table is not self.table:
            self._require_same(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            if s is not None:
                c = s + c
            if c:
                out[exps] = c
            else:
                del out[exps]
        return _trusted(self.table, out)

    __radd__ = __add__

    def __sub__(self, other):
        if (c := _coerce(other)) is not None:
            return self + (-c)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _trusted(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if (c := _coerce(other)) is None:
                return NotImplemented
            return _trusted(self.table, {e: v * c for e, v in self.terms.items()}
                            if c else {})
        if other.table is not self.table:
            self._require_same(other)
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        if other is self and len(self.terms) > 1:
            return self._square()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                s = out.get(key)
                out[key] = c1 * c2 if s is None else s + c1 * c2
        return _trusted(self.table, {e: c for e, c in out.items() if c})

    def _square(self):
        """``self * self`` on ``divide_exact``'s Gaussian integers, each cross
        term formed once, in the order (so the term order) of ``*``'s loop."""
        (content,), (keys,), unpack = _grlex_packed([self], 2)
        pairs, d = _gaussian_integers(self.terms.values())
        items = list(zip(keys, pairs))
        out = {}
        for i, (t1, (a1, b1)) in enumerate(items):
            for t2, (a2, b2) in items[i:]:
                pa, pb = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                if t2 != t1:
                    pa, pb = pa + pa, pb + pb
                key = t1 + t2
                old = out.get(key)
                out[key] = (pa, pb) if old is None else (old[0] + pa, old[1] + pb)
        shift = tuple(e + e for e in content)
        return _trusted(self.table, {
            tuple(map(add, shift, unpack(key))): _reduced(a, b, d * d)
            for key, (a, b) in out.items() if a or b})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if not self.is_monomial():
                raise ValueError(
                    "negative power of a non-monomial Laurent polynomial; "
                    "lift to RationalFn instead")
            (exps, coeff), = self.terms.items()
            inv = _trusted(self.table, {tuple(-e for e in exps): coeff.inverse()})
            return inv ** (-exponent)
        return _power(self, exponent) if exponent else _one(self.table)

    def __truediv__(self, other):
        if (c := _coerce(other)) is not None:
            return self * c.inverse()
        if isinstance(other, LaurentPoly):
            return RationalFn(self, other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and self.table == other.table and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    # -- calculus / degrees ----------------------------------------------

    def partial(self, name: str) -> "LaurentPoly":
        """Formal partial derivative (term-wise power rule)."""
        k = self.table.index(name)
        # distinct terms stay distinct, so nothing cancels
        return _trusted(self.table, {
            exps[:k] + (exps[k] - 1,) + exps[k + 1:]: c * exps[k]
            for exps, c in self.terms.items() if exps[k]})

    def evaluate(self, values: Mapping[str, object]) -> GaussianRational:
        """Exact evaluation; distinct errors for the distinct failure modes.
        UnboundVariable, for the first variable in table order that occurs
        and has no value, is raised before any other error."""
        names = self.table.names
        for k, name in enumerate(names):
            if name not in values and any(exps[k] for exps in self.terms):
                raise UnboundVariable(f"no value for variable {name!r}")
        total = GaussianRational.of(0)
        for exps, c in self.terms.items():
            term = c
            for name, e in zip(names, exps):
                if e:
                    base = GaussianRational.of(values[name])
                    if not base and e < 0:
                        raise NegativePowerOfZero(f"{name} = 0 raised to power {e}")
                    term = term * base ** e
            total = total + term
        return total

    def weighted_degree(self, weights: Mapping[str, int]) -> int:
        """Common weighted degree of all terms, else Inhomogeneous."""
        if not self.terms:
            raise ValueError("weighted degree of the zero polynomial")
        degrees = set()
        for exps in self.terms:
            d = 0
            for k, e in enumerate(exps):
                if e:
                    name = self.table.names[k]
                    if name not in weights:
                        raise KeyError(f"no weight for variable {name!r}")
                    d += e * weights[name]
            degrees.add(d)
        if len(degrees) > 1:
            raise Inhomogeneous(f"term degrees {sorted(degrees)}")
        return degrees.pop()

    # -- division --------------------------------------------------------

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact single-divisor division; raises NotDivisible on remainder.

        Monomial content is stripped first so the loop runs over honest
        polynomials where graded lex is a well-order; divisibility in the
        Laurent ring is equivalent to divisibility of the content-free
        parts, because a content-free polynomial has no variable factors.
        Both parts become Gaussian integers over a common denominator each,
        and their exponent vectors become ``_grlex_packed`` integers.  The
        remainder r is ``scale * (num - quotient * den)``, where ``scale``
        grows when a leading coefficient does not divide exactly, and its
        leading term comes from a heap with lazy deletion: a cancelled
        term's entry is skipped when it surfaces.  Every term the loop adds
        is grlex below the leading term it cancels, so its degree stays
        within the packing's base.
        """
        if (c := _coerce(den)) is not None:
            den = LaurentPoly.constant(self.table, c)
        self._require_same(den)
        if den.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        (cn, cd), (n_keys, d_keys), unpack = _grlex_packed([self, den])
        n_pairs, num_scale = _gaussian_integers(self.terms.values())
        d_pairs, den_scale = _gaussian_integers(den.terms.values())
        r = dict(zip(n_keys, n_pairs))
        d = dict(zip(d_keys, d_pairs))
        ld = max(d)
        ld_exps = unpack(ld)
        la, lb = d.pop(ld)
        norm = la * la + lb * lb
        rest = list(d.items())
        heap = [-t for t in r]      # negated, so the least entry leads
        heapify(heap)
        q = []      # (quotient exponent, Gaussian integer, scale)
        scale = 1
        while heap:
            lr = -heappop(heap)
            coeff = r.pop(lr, None)
            if coeff is None:
                continue
            diff_exps = tuple(map(sub, unpack(lr), ld_exps))
            if min(diff_exps, default=0) < 0:
                raise NotDivisible(
                    f"{self.to_expr()} is not divisible by {den.to_expr()}")
            diff = lr - ld
            ra, rb = coeff
            ua, ub = ra * la + rb * lb, rb * la - ra * lb   # coeff * conj(lead)
            if ua % norm or ub % norm:
                f = norm // gcd(ua, ub, norm)
                scale *= f
                ua, ub = ua * f, ub * f
                r = {t: (a * f, b * f) for t, (a, b) in r.items()}
            ga, gb = ua // norm, ub // norm
            q.append((diff_exps, ga, gb, scale))
            for t, (a, b) in rest:
                key = diff + t
                pa, pb = ga * a - gb * b, ga * b + gb * a
                old = r.get(key)
                if old is None:
                    r[key] = (-pa, -pb)
                    heappush(heap, -key)
                elif old[0] != pa or old[1] != pb:
                    r[key] = (old[0] - pa, old[1] - pb)
                else:
                    del r[key]
        shift = tuple(map(sub, cn, cd))
        return _trusted(self.table, {
            tuple(map(add, shift, diff_exps)): _reduced(
                ga * den_scale, gb * den_scale, s * num_scale)
            for diff_exps, ga, gb, s in q})

    # -- conversions -----------------------------------------------------

    def as_rational(self) -> "RationalFn":
        return _normal(self, _one(self.table))

    def canonical_key(self) -> tuple:
        """Hashable, totally ordered key; equal polynomials share it."""
        return tuple(sorted(
            (exps, c.re, c.im) for exps, c in self.terms.items()
        ))

    # -- rendering -------------------------------------------------------

    def to_expr(self) -> str:
        """Deterministic expression-grammar rendering (leading term first)."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            factors = []
            for name, e in zip(self.table.names, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            re_, im = _part_strs(self.terms[exps])
            if not mono:
                parts.append(_gaussian_expr(re_, im))
            elif im != "0":
                parts.append(f"({_gaussian_expr(re_, im)})*{mono}")
            elif re_ == "1":
                parts.append(mono)
            elif re_ == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{re_}*{mono}")
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += f" - {p[1:]}"
            else:
                text += f" + {p}"
        return text

    __str__ = to_expr

    def __repr__(self) -> str:
        return f"<LaurentPoly {self.to_expr()} over {self.table.names}>"


def _trusted(table: VarTable, terms: dict) -> LaurentPoly:
    """A LaurentPoly over ``terms`` as given, for the results of ring
    operations: nonzero GaussianRational coefficients on exponent tuples of
    the table's width, which ``LaurentPoly(table, terms)`` would re-check."""
    poly = object.__new__(LaurentPoly)
    poly.table = table
    poly.terms = terms
    return poly


def _one(table: VarTable) -> LaurentPoly:
    return _trusted(table, {(0,) * len(table): _ONE})


def _is_one(poly: LaurentPoly) -> bool:
    terms = poly.terms
    c = terms.get((0,) * len(poly.table.names)) if len(terms) == 1 else None
    return c is not None and c == _ONE


def _grlex_packed(polys: list, scale: int = 1) -> tuple:
    """``(contents, keys, unpack)`` for nonzero ``polys`` on one table: the
    monomial content of each, the integer keys of its exponent vectors less
    that content, in term order, and the way back.  A vector ``e`` packs to
    the digits ``sum(e), e_1, ..., e_n`` in a base above ``scale`` times the
    largest entry sum, so keys compare as grlex does and add as the vectors
    do while entry sums stay below the base."""
    contents = [p.monomial_content() for p in polys]
    vectors = [[tuple(map(sub, e, c)) for e in p.terms] for p, c in zip(polys, contents)]
    base = 1 + scale * max(sum(e) for vs in vectors for e in vs)
    width = len(contents[0])

    def pack(e):
        key = sum(e)
        for x in e:
            key = key * base + x
        return key

    def unpack(key):
        e = [0] * width
        for i in range(width - 1, -1, -1):
            key, e[i] = divmod(key, base)
        return tuple(e)
    return contents, [list(map(pack, vs)) for vs in vectors], unpack


def _gaussian_expr(re_: str, im: str) -> str:
    """Render a coefficient's ``_part_strs`` so the grammar parses it back."""
    if im == "0":
        return re_
    imag = "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
    if re_ == "0":
        return imag
    return f"{re_}{'' if im[0] == '-' else '+'}{imag}"


class RationalFn:
    """Quotient of Laurent polynomials, normalized only up to monomial content.

    The denominator is normal: content-free (minimum exponent zero in every
    variable) and monic in the graded-lex leading coefficient; a monomial
    denominator therefore normalizes to 1 with everything absorbed into the
    (Laurent) numerator.  Equality is cross-multiplication.  This
    constructor normalizes (``inverse``, ``/`` and ``substitute`` call it);
    ``+``, ``*``, ``**`` and ``as_rational`` only multiply normal
    denominators, whose products are normal (lowest exponents add, grlex
    leaders multiply), and skip it by ``_normal``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = 1):
        if (c := _coerce(den)) is not None:
            den = LaurentPoly.constant(num.table, c)
        num._require_same(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = _one(num.table)
        else:
            content = den.monomial_content()
            if any(content):
                neg = tuple(-e for e in content)
                den = den.shifted(neg)
                num = num.shifted(neg)
            lead = den.terms[den.leading_exponents()]
            if lead != 1:
                inv = lead.inverse()
                den = den * inv
                num = num * inv
        self.num = num
        self.den = den

    @property
    def table(self) -> VarTable:
        return self.num.table

    @classmethod
    def zero(cls, table: VarTable) -> "RationalFn":
        return LaurentPoly.zero(table).as_rational()

    @classmethod
    def constant(cls, table: VarTable, value) -> "RationalFn":
        return LaurentPoly.constant(table, value).as_rational()

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "RationalFn":
        return LaurentPoly.variable(table, name).as_rational()

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    # -- field operations ------------------------------------------------

    @staticmethod
    def _lift(value, table: VarTable):
        if isinstance(value, RationalFn):
            return value
        if isinstance(value, LaurentPoly):
            return value.as_rational()
        if (c := _coerce(value)) is not None:
            return RationalFn.constant(table, c)
        return None

    def __add__(self, other):
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return _normal(self.num + other.num, self.den)
        return _normal(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _normal(-self.num, self.den)

    def __mul__(self, other):
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        return _normal(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFn":
        if self.num.is_zero:
            raise DenominatorZero("inverse of the zero rational function")
        return RationalFn(self.den, self.num)

    def __truediv__(self, other):
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _normal(self.num ** exponent, self.den ** exponent)

    def __eq__(self, other) -> bool:
        other = self._lift(other, self.table)
        if other is None:
            return NotImplemented
        if self.table != other.table:
            return False
        return (self.num * other.den) == (other.num * self.den)

    __hash__ = None  # cross-multiplication equality is not hash-compatible

    # -- conversions and evaluation --------------------------------------

    def as_laurent(self) -> LaurentPoly:
        """The fraction as a Laurent polynomial, or NotLaurent."""
        if _is_one(self.den):
            return self.num
        return self.num.divide_exact(self.den)

    def evaluate(self, values: Mapping[str, object]) -> GaussianRational:
        d = self.den.evaluate(values)
        if not d:
            raise DenominatorZero(f"denominator {self.den.to_expr()} vanishes")
        return self.num.evaluate(values) * d.inverse()

    def substitute(self, bindings: Mapping[str, "RationalFn"],
                   into: VarTable) -> "RationalFn":
        """Substitute each variable by a rational function over `into`."""
        num = _substitute_poly(self.num, bindings, into)
        if _is_one(self.den):
            return num
        den = _substitute_poly(self.den, bindings, into)
        if den.is_zero:
            raise DenominatorZero(
                f"denominator {self.den.to_expr()} vanishes under substitution")
        return num / den

    def weighted_degree(self, weights: Mapping[str, int]) -> int:
        return self.num.weighted_degree(weights) - self.den.weighted_degree(weights)

    def variables_used(self) -> set:
        return self.num.variables_used() | self.den.variables_used()

    def to_expr(self) -> str:
        if _is_one(self.den):
            return self.num.to_expr()
        return f"({self.num.to_expr()})/({self.den.to_expr()})"

    __str__ = to_expr

    def __repr__(self) -> str:
        return f"<RationalFn {self.to_expr()}>"


def _normal(num: LaurentPoly, den: LaurentPoly) -> RationalFn:
    """RationalFn(num, den) for a normal ``den``, without renormalizing."""
    out = object.__new__(RationalFn)
    out.num = num
    out.den = den if num.terms else _one(num.table)
    return out


def _substitute_poly(poly: LaurentPoly, bindings: Mapping[str, RationalFn],
                     into: VarTable) -> RationalFn:
    """``poly`` with each variable replaced by its binding over ``into``.
    A monomial binding (denominator 1, one term) becomes an exponent shift
    and a coefficient power; other bindings multiply as RationalFn powers,
    in variable order.  A product with a monomial keeps the other factor's
    term order, so taking the monomials first keeps the result's."""
    names = poly.table.names
    zero = (0,) * len(into)
    total = RationalFn.zero(into)
    for exps, coeff in poly.terms.items():
        shift, c, factors = zero, coeff, []
        for name, e in zip(names, exps):
            if not e:
                continue
            if name not in bindings:
                raise UnboundVariable(f"no substitution for variable {name!r}")
            value = bindings[name]
            if e < 0 and value.is_zero:
                raise DenominatorZero(
                    f"substitution sends {name} to zero but it appears "
                    f"with exponent {e}")
            num = value.num
            if num.table != into:
                raise ValueError(f"variable tables differ: {into!r} vs {num.table!r}")
            if len(num.terms) == 1 and _is_one(value.den):
                (m, mc), = num.terms.items()
                shift = tuple([s + e * x for s, x in zip(shift, m)])
                c = c * mc ** e
            else:
                factors.append((value, e))
        term = _normal(_trusted(into, {shift: c}), _one(into))
        for value, e in factors:
            term = term * value ** e
        total = total + term
    return total
