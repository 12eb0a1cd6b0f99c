"""Q(i) arithmetic on plain `(Fraction, Fraction)` pairs, and an evaluator
for the expression grammar (``+ - * / ^``, integers, names, ``i``).

This is the benchmark's own arithmetic, independent of `clusterwp.exact`,
so that oracles can recompute relations and evaluate emitted expressions
without calling the code they check.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
I = (Fraction(0), Fraction(1))


def qadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qinv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    if not norm:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    return (a[0] / norm, -a[1] / norm)


def qpow(a, e):
    if e < 0:
        return qpow(qinv(a), -e)
    out = ONE
    for _ in range(e):
        out = qmul(out, a)
    return out


def of_gaussian(value):
    """Pair from anything with `.re` and `.im` Fractions."""
    return (Fraction(value.re), Fraction(value.im))


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(\S))")


def evaluate(text, values):
    """Exact value of an expression at `values` (name -> pair).  Raises
    ZeroDivisionError when a denominator vanishes there."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    at = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def expr():
        out = term()
        while tokens[at] in ("+", "-"):
            op, rhs = take(), term()
            out = qadd(out, rhs) if op == "+" else qsub(out, rhs)
        return out

    def term():
        out = unary()
        while tokens[at] in ("*", "/"):
            op, rhs = take(), unary()
            out = qmul(out, rhs) if op == "*" else qmul(out, qinv(rhs))
        return out

    def unary():
        if tokens[at] == "-":
            take()
            return qsub(ZERO, unary())
        return power()

    def power():
        base = atom()
        if tokens[at] != "^":
            return base
        take()
        sign = -1 if tokens[at] == "-" else 1
        if sign < 0:
            take()
        return qpow(base, sign * int(take()))

    def atom():
        tok = take()
        if tok == "(":
            out = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return out
        if tok.isdigit():
            return (Fraction(int(tok)), Fraction(0))
        if tok == "i":
            return I
        return values[tok]

    out = expr()
    if tokens[at] is not None:
        raise ValueError(f"trailing input in {text!r}")
    return out
