"""Exact coefficient arithmetic over the Gaussian rationals Q(i).

Everything downstream (Laurent polynomials, chart 2-forms, tangent-space
ranks) bottoms out in field arithmetic here.  A value is a normalized
integer triple: (a + b*i)/d with d > 0 and gcd(a, b, d) = 1, so equal
values have equal triples, and an integral value (d = 1, by far the most
common: every catalog expansion has integer coefficients) needs no gcd at
all.  Every operation is exact; there is no floating point anywhere in this
package.  Q(i) is enough to express all constants the built-in examples
need (integers, -1/2, the square roots of -1).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm


class GaussianParseError(ValueError):
    """A token does not match the Gaussian-rational literal grammar."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact rational")


class GaussianRational:
    """An element (a + b*i)/d of Q(i), kept as integers with d > 0 and
    gcd(a, b, d) = 1; ``re`` and ``im`` are its parts as Fractions."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        # with both parts in lowest terms, d = lcm of the denominators
        # leaves gcd(a, b, d) = 1
        q, s = re.denominator, im.denominator
        d = lcm(q, s)
        self._a, self._b, self._d = re.numerator * (d // q), im.numerator * (d // s), d

    @classmethod
    def of(cls, value) -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational."""
        z = _coerce(value)
        if z is None:
            raise TypeError(f"cannot treat {value!r} as an exact rational")
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    @property
    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # agree with int/Fraction hashes on the real axis
        return hash(self.re) if not self._b else hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero in Q(i)")
            return _make(-d, 0, -a) if a < 0 else _make(d, 0, a)
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _reduced(d * a, -d * b, a * a + b * b)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b:   # a real factor, the common case
            return _reduced(a * c, a * e, self._d * other._d)
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _power(self, exponent) if exponent else _ONE

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_gaussian(self)!r})"


def _make(a, b, d):
    """(a + b*i)/d from a triple already in lowest terms."""
    z = _alloc(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a, b, d):
    """(a + b*i)/d brought to lowest terms, for d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _power(base, e):
    """``base ** e`` for e >= 1 by square-and-multiply; x ** 1 is x itself."""
    result = None
    while True:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if not e:
            return result
        base = base * base


def _gaussian_integers(values):
    """``(pairs, d)``: each of ``values`` as a Gaussian integer ``(a, b)``
    with value (a + b*i)/d, over one common denominator d > 0; ``_reduced``
    is the way back."""
    d = lcm(*(z._d for z in values))
    return [(z._a * (d // z._d), z._b * (d // z._d)) for z in values], d


def _coerce(value):
    """``value`` as a GaussianRational, or None if it is not an int,
    Fraction or GaussianRational; with ``GaussianRational.of``, the only
    place that decides which Python values are Q(i) scalars."""
    if type(value) is GaussianRational:
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


_alloc = object.__new__
_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# literal grammar
#
# Canonical form:  [-]p[/q][(+|-)r[/s]i]   with shorthands  i  and  -i
# Parsing is slightly liberal (pure-imaginary magnitudes, omitted 1 before
# the i) but emission sticks to the canonical form, so format -> parse is
# the identity and emitted files are stable byte-for-byte.
# ---------------------------------------------------------------------------

_RAT = r"[0-9]+(?:/[0-9]+)?"    # ASCII digits only, as in every reader
_REAL_RE = _re.compile(rf"^[+-]?{_RAT}$")
_IMAG_RE = _re.compile(rf"^([+-]?)({_RAT})?i$")
_FULL_RE = _re.compile(rf"^([+-]?{_RAT})([+-])({_RAT})?i$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse a whitespace-free Gaussian-rational literal."""
    token = text.strip()
    try:
        if _REAL_RE.match(token):
            return GaussianRational(Fraction(token))
        m = _IMAG_RE.match(token)
        if m:
            sign = -1 if m.group(1) == "-" else 1
            mag = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            return GaussianRational(Fraction(0), sign * mag)
        m = _FULL_RE.match(token)
        if m:
            sign = -1 if m.group(2) == "-" else 1
            mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
            return GaussianRational(Fraction(m.group(1)), sign * mag)
    except ZeroDivisionError:
        raise GaussianParseError(f"zero denominator in literal {text!r}") from None
    raise GaussianParseError(f"not a Gaussian-rational literal: {text!r}")


def _part_strs(z: GaussianRational) -> tuple:
    """``(str(z.re), str(z.im))`` from the triple: one gcd per part, none
    when d = 1."""
    a, b, d = z._a, z._b, z._d
    if d == 1:
        return str(a), str(b)
    g, h = gcd(a, d), gcd(b, d)
    return (str(a // g) if g == d else f"{a // g}/{d // g}",
            str(b // h) if h == d else f"{b // h}/{d // h}")


def format_gaussian(value: GaussianRational) -> str:
    """Canonical literal for a Gaussian rational (inverse of parse_gaussian)."""
    re_, im = _part_strs(value)
    if im == "0":
        return re_
    if re_ == "0" and im in ("1", "-1"):
        return "i" if im == "1" else "-i"
    return f"{re_}{'' if im[0] == '-' else '+'}{im}i"


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank over Q(i) of a sequence of rows of scalars, exact, with no pivot
    thresholds.  Each row is scaled to Gaussian integers, which leaves the
    rank alone; forward elimination without fractions, row_i <- p row_i -
    c row_r for the pivot p of row r and the entry c of row_i below it,
    updates only the columns right of the pivot and divides each new row
    by the integer gcd of its parts; the rank is the number of pivots."""
    rows = [_gaussian_integers([GaussianRational.of(x) for x in row])[0] for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    r = 0
    for col in range(ncols):
        for pivot in range(r, len(rows)):
            if rows[pivot][col] != (0, 0):
                break
        else:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        (p, q), rest = rows[r][col], rows[r][col + 1:]
        for row in rows[r + 1:]:
            c, e = row[col]
            if c or e:
                new = [(p * a - q * b - c * x + e * y, p * b + q * a - c * y - e * x)
                       for (a, b), (x, y) in zip(row[col + 1:], rest)]
                g = gcd(*(part for z in new for part in z))
                row[col + 1:] = [(a // g, b // g) for a, b in new] if g > 1 else new
        r += 1
        if r == len(rows):
            break
    return r
