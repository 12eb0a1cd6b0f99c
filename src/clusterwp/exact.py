"""Exact coefficient arithmetic over the Gaussian rationals Q(i).

Everything downstream (Laurent polynomials, chart 2-forms, tangent-space
ranks) bottoms out in field arithmetic here.  A value is a pair of stdlib
``fractions.Fraction``s, so every operation is exact; there is no floating
point anywhere in this package.  Q(i) is enough to express all constants
the built-in examples need (integers, -1/2, the square roots of -1).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GaussianParseError",
    "GaussianRational",
    "format_gaussian",
    "parse_gaussian",
    "rank",
]


class GaussianParseError(ValueError):
    """A token does not match the Gaussian-rational literal grammar."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), with a, b normalized Fractions."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @classmethod
    def of(cls, value) -> "GaussianRational":
        """Coerce an int, Fraction, or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return cls(_frac(value))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # agree with int/Fraction hashes on the real axis
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def _norm(self) -> Fraction:
        # squared modulus; rational and zero only at zero
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self._norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

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
        result = GaussianRational(Fraction(1))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianRational({format_gaussian(self)!r})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(_frac(value))
    return None


# ---------------------------------------------------------------------------
# literal grammar
#
# Canonical form:  [-]p[/q][(+|-)r[/s]i]   with shorthands  i  and  -i
# Parsing is slightly liberal (pure-imaginary magnitudes, omitted 1 before
# the i) but emission sticks to the canonical form, so format -> parse is
# the identity and emitted files are stable byte-for-byte.
# ---------------------------------------------------------------------------

_RAT = r"\d+(?:/\d+)?"
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


def format_gaussian(value: GaussianRational) -> str:
    """Canonical literal for a Gaussian rational (inverse of parse_gaussian)."""
    re_, im = value.re, value.im
    if not im:
        return str(re_)
    if not re_ and im == 1:
        return "i"
    if not re_ and im == -1:
        return "-i"
    sign = "+" if im > 0 else "-"
    return f"{re_}{sign}{abs(im)}i"


# ---------------------------------------------------------------------------
# exact rank
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank over Q(i) of a sequence of rows of scalars, by Gaussian
    elimination; exact, no pivot thresholds."""
    rows = [[GaussianRational.of(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r
