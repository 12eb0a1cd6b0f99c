"""Seeded inputs for the benchmark workloads.

Everything here is plain integer and `Fraction` code that never imports
clusterwp: start seeds are reached by mutating integer exchange matrices
with the Fomin-Zelevinsky rule, points are built from seeded Q(i) values,
and forms are written out in the form-file syntax from the matrix alone.
The same `random.Random` state always yields the same inputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from qi import ONE, qadd, qinv, qmul, qpow

# ---------------------------------------------------------------------------
# exchange matrices (square, skew-symmetric, every index mutable)
# ---------------------------------------------------------------------------


def path_matrix(n):
    """The A_n quiver 1 -> 2 -> ... -> n."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    return rows


def d4_matrix():
    """The D_4 quiver: centre 0 with arrows to 1, 2 and 3."""
    rows = [[0] * 4 for _ in range(4)]
    for j in (1, 2, 3):
        rows[0][j], rows[j][0] = 1, -1
    return rows


MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
AFFINE = [[0, 2], [-2, 0]]


def mutate(rows, k):
    """Fomin-Zelevinsky matrix mutation at 0-based index k:
    b'_ij = -b_ij if k in (i, j), else b_ij + (|b_ik| b_kj + b_ik |b_kj|)/2."""
    n = len(rows)
    out = [row[:] for row in rows]
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i][j] = -rows[i][j]
            else:
                bik, bkj = rows[i][k], rows[k][j]
                out[i][j] = rows[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return out


def random_walk(rng, rows, steps):
    """Mutate along `steps` random directions, never undoing the last one."""
    last = None
    for _ in range(steps):
        k = rng.choice([j for j in range(len(rows)) if j != last])
        rows = mutate(rows, k)
        last = k
    return rows


def permuted(rng, rows):
    """Relabel the indices by a random permutation."""
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [[rows[a][b] for b in order] for a in order]


def find_cycle(rows):
    """Some directed cycle of the quiver (edge i -> j iff b_ij > 0) as a
    list of 0-based indices, or None.  Iterative depth-first search."""
    n = len(rows)
    color = [0] * n
    for root in range(n):
        if color[root]:
            continue
        path = [root]
        color[root] = 1
        todo = [iter(range(n))]
        while todo:
            u = path[-1]
            for v in todo[-1]:
                if rows[u][v] > 0:
                    if color[v] == 1:
                        return path[path.index(v):]
                    if color[v] == 0:
                        color[v] = 1
                        path.append(v)
                        todo.append(iter(range(n)))
                        break
            else:
                color[u] = 2
                path.pop()
                todo.pop()
    return None


def is_path_orientation(rows):
    """True when the quiver is an orientation of the A_n Dynkin path: every
    arrow is simple and the underlying graph is a path."""
    n = len(rows)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]]
    if any(abs(rows[i][j]) != 1 for i, j in edges) or len(edges) != n - 1:
        return False
    degree = [0] * n
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v in range(n):
            if rows[u][v] and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == n and max(degree, default=0) <= 2


def class_member(rng, rows, steps):
    """A random seed of the mutation class of `rows`, relabelled."""
    return permuted(rng, random_walk(rng, rows, steps))


def cyclic_member(rng, rows):
    """A random seed of the mutation class of `rows` whose quiver has a
    directed cycle; the class must contain one."""
    while True:
        rows = mutate(rows, rng.randrange(len(rows)))
        if find_cycle(rows) is not None:
            return permuted(rng, rows)


def acyclic_path(rng, n):
    """A random orientation of the A_n path (always acyclic)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        s = rng.choice((1, -1))
        rows[i][i + 1], rows[i + 1][i] = s, -s
    return rows


def independent_set(rng, rows, size):
    """A random set of `size` pairwise non-adjacent 0-based indices; the
    quiver must have one."""
    sets = [c for c in itertools.combinations(range(len(rows)), size)
            if all(rows[a][b] == 0 for a, b in itertools.combinations(c, 2))]
    return list(rng.choice(sets))


def adjacent_set(rng, rows):
    """A random index set containing at least one adjacent pair."""
    n = len(rows)
    a, b = rng.choice([(i, j) for i in range(n) for j in range(n)
                       if i < j and rows[i][j]])
    extra = [v for v in range(n) if v not in (a, b) and rng.random() < 0.3]
    return sorted({a, b, *extra})


def smallest_adjacent_pair(rows, indices):
    """Smallest pair a < b (1-based) of `indices` with b_ab != 0, or None."""
    idx = sorted(indices)
    for pos, a in enumerate(idx):
        for b in idx[pos + 1:]:
            if rows[a - 1][b - 1]:
                return (a, b)
    return None


# ---------------------------------------------------------------------------
# names and file texts
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghjkmnpqrstuvwyz"


def fresh_names(rng, n):
    """n distinct identifiers sharing a random two-letter prefix."""
    prefix = rng.choice(_LETTERS) + rng.choice(_LETTERS)
    return [f"{prefix}{j}" for j in range(1, n + 1)]


def seed_text(rows, names):
    lines = [f"rank {len(names)}", f"mutable {len(rows)}",
             "names " + " ".join(names)]
    lines += ["row " + " ".join(str(b) for b in row) for row in rows]
    return "\n".join(lines) + "\n"


def parse_seed_text(text):
    """(rows, names) of a seed file; the inverse of `seed_text`."""
    fields = {}
    rows = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "row":
            rows.append([int(t) for t in tokens[1:]])
        else:
            fields[tokens[0]] = tokens[1:]
    return rows, fields["names"]


def _monomial(names, row, sign):
    factors = [name if abs(b) == 1 else f"{name}^{abs(b)}"
               for name, b in zip(names, row) if b * sign > 0]
    return "*".join(factors) or "1"


def exchange_binomial(rows, names, k):
    """P_k as expression text: the product over b_kj > 0 plus the product
    over b_kj < 0."""
    return f"{_monomial(names, rows[k], 1)} + {_monomial(names, rows[k], -1)}"


def wp_form_text(rows, names):
    """The chart form sum_{i<j} b_ij/(f_i f_j) df_i^df_j in form syntax."""
    n = len(names)
    return "".join(f"{rows[i][j]}/({names[i]}*{names[j]}) ; {names[i]} ; {names[j]}\n"
                   for i in range(n) for j in range(i + 1, n) if rows[i][j])


def regularized_form_text(rows, names, vanishing, primes):
    """The local regularization of the chart form at a non-adjacent vanishing
    set (0-based indices), written from the matrix.  Row i becomes

        (1/M+) (df_i^df_i' + f_i' sum_{b_ij<0} b_ij df_i^df_j / f_j)

    with f_i' = (M+ + M-)/f_i, which equals sum_j b_ij/(f_i f_j) df_i^df_j
    because M+ = f_i f_i' - M-.  Pairs away from the vanishing set keep their
    chart terms."""
    lines = []
    for i in vanishing:
        lines.append(f"gen {primes[i]} = ({exchange_binomial(rows, names, i)})/{names[i]}")
    for i in vanishing:
        lead = _monomial(names, rows[i], 1)
        lines.append(f"1/({lead}) ; {names[i]} ; {primes[i]}")
        for j, b in enumerate(rows[i]):
            if b < 0:
                lines.append(f"{b}*{primes[i]}/({lead}*{names[j]}) ; {names[i]} ; {names[j]}")
    n = len(names)
    for a in range(n):
        for b in range(a + 1, n):
            if rows[a][b] and a not in vanishing and b not in vanishing:
                lines.append(f"{rows[a][b]}/({names[a]}*{names[b]}) ; {names[a]} ; {names[b]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Q(i) values and points
# ---------------------------------------------------------------------------


def qi_value(rng):
    """A seeded value of Q(i) that is neither real nor integral, such as
    3/2-1/3i.  Heights are kept in a narrow band (halves plus thirds of i)
    so that the cost of arithmetic on them varies little between seeds."""
    return (Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 2),
            Fraction(rng.choice((-4, -2, -1, 1, 2, 4)), 3))


def qi_expr(value):
    """The value as a parenthesized expression, e.g. (3/2-1/3*i)."""
    re, im = value
    sign = "-" if im < 0 else "+"
    return f"({re}{sign}{abs(im)}*i)"


def monomial_value(values, names, row, sign):
    out = ONE
    for name, b in zip(names, row):
        if b * sign > 0:
            out = qmul(out, qpow(values[name], abs(b)))
    return out


def binomial_value(values, names, row):
    return qadd(monomial_value(values, names, row, 1),
                monomial_value(values, names, row, -1))


def presentation_point(rng, rows, names, primes):
    """Seeded values of the chart variables plus the partners
    f_i' = P_i/f_i, so every exchange relation holds."""
    values = {name: qi_value(rng) for name in names}
    for i, prime in enumerate(primes):
        values[prime] = qmul(binomial_value(values, names, rows[i]),
                             qinv(values[names[i]]))
    return values


def sequence_count(m, depth):
    """Number of mutation sequences of length 1..depth in m directions."""
    return sum(m ** d for d in range(1, depth + 1))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def a_census(n):
    """(clusters, variables) of type A_n: Catalan(n+1) and n(n+3)/2."""
    return catalan(n + 1), n * (n + 3) // 2


D4_CENSUS = (50, 16)
