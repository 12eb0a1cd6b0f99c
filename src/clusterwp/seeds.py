"""Seeds, matrix mutation, acyclic presentations, and chart exploration.

A seed is a chart: an ``m x n`` integer exchange matrix (rows indexed by the
``m`` mutable variables, columns by all ``n``) together with labelled
cluster variables.  Each seed also carries integer g-vectors of its
variables and c-vectors of its mutable slots, relative to principal
coefficients at its root, the ``Seed.initial`` it was mutated from
(Fomin-Zelevinsky, *Cluster algebras IV*), so mutation is integer
arithmetic only and a cluster is identified by its g-vectors.  Laurent
expansions in an initial chart live in an ``Exploration``, which computes
each distinct variable's expansion on first read, by one exact division
from a seed one mutation away.

A new variable is named by a namer ``(seed, k) -> name``, by default
``prime_namer``, primed until fresh among the seed's names or all the names
a walk has given (``_walk_namer``).  A seed's partners are the first ring
of a walk from it, so ``explore``, ``present`` and both searches agree.
Only ``_exchange_monomials`` reads P+ and P- off a matrix row, and only
``_partner`` builds a partner P+/x_k + P-/x_k over a seed's own variables;
a seed's chart, all that forms read of it, is ``_chart(seed)``: its matrix
and names.
"""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import attrgetter

from .laurent import LaurentPoly, NotLaurent, VarTable, _RESERVED, _check_name


class NotSkewSymmetrizable(ValueError):
    """No positive diagonal D with D*B skew-symmetric; names the bad pair."""

    def __init__(self, pair, reason):
        self.pair = pair
        super().__init__(f"rows {pair[0]},{pair[1]}: {reason}")


class NotAcyclic(ValueError):
    def __init__(self, cycle):
        self.cycle = cycle
        super().__init__(
            "directed cycle among mutable indices: "
            + " -> ".join(str(k) for k in cycle)
        )


class NotFoundWithinBudget(RuntimeError):
    """No ``what`` among a search's first max_seeds clusters to max_depth."""

    def __init__(self, what, max_seeds, max_depth):
        self.what = what
        super().__init__(f"no {what} within {max_seeds} seeds at depth <= {max_depth}")


class MutationArithmeticError(RuntimeError):
    """A mutation quotient failed to be Laurent (should never happen)."""


_set = object.__setattr__   # how a record's __init__ sets its fields, once


class _Record:
    """A frozen record, as ``VarTable`` is: its ``__slots__`` hold its
    fields, in constructor order, but a slot named ``_...``, which holds a
    cache built on first read.  ``==`` and ``hash`` take the fields as one
    tuple, of records of the same class only, and the repr names them.
    Assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def _fill(self, *values):
        for field, value in zip(self._fields, values):
            _set(self, field, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):     # copy and pickle build through __init__
        return type(self), self._values(self)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class ExchangeMatrix(_Record):
    """Integer m x n exchange matrix, a tuple of m tuples of n ints, validated
    skew-symmetrizable on the mutable m x m block at construction."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m, n, rows):
        if not (type(m) is type(n) is int and 1 <= m <= n):
            raise ValueError(f"need integers 1 <= mutable <= rank, got {m!r}, {n!r}")
        if type(rows) is not tuple or len(rows) != m:
            raise ValueError(f"expected a tuple of {m} rows, got {rows!r}")
        for row in rows:
            if type(row) is not tuple or len(row) != n:
                raise ValueError(f"expected a tuple of {n} entries per row, got {row!r}")
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"matrix entries must be integers, got {x!r}")
        self._fill(m, n, rows)
        find_skew_symmetrizer(self)

    def b(self, i, j):
        """Entry B_ij with 1-based indices (row i mutable, column j any)."""
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"B_{i}{j} out of range for {self.m}x{self.n}")
        return self.rows[i - 1][j - 1]


def find_skew_symmetrizer(matrix):
    """Positive integers (d_1..d_m), gcd 1 per connected component, with
    d_i B_ij = -d_j B_ji on the mutable block.  Raises NotSkewSymmetrizable
    naming the offending index pair."""
    m, rows = matrix.m, matrix.rows
    for i in range(m):
        if rows[i][i] != 0:
            raise NotSkewSymmetrizable((i + 1, i + 1), "nonzero diagonal entry")
        for j in range(i + 1, m):
            a, b = rows[i][j], rows[j][i]
            if (a == 0) != (b == 0) or (a != 0 and a * b > 0):
                raise NotSkewSymmetrizable((i + 1, j + 1), "signs do not oppose")
    d = [None] * m
    for root in range(m):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        component = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            for v in range(m):
                if v == u or rows[u][v] == 0:
                    continue
                ratio = d[u] * Fraction(abs(rows[u][v]), abs(rows[v][u]))
                if d[v] is None:
                    d[v] = ratio
                    component.append(v)
                    stack.append(v)
                elif d[v] != ratio:
                    pair = (min(u, v) + 1, max(u, v) + 1)
                    raise NotSkewSymmetrizable(pair, "inconsistent weight ratios")
        scale = lcm(*(d[c].denominator for c in component))
        nums = [int(d[c] * scale) for c in component]
        shrink = gcd(*nums)
        for c, value in zip(component, nums):
            d[c] = value // shrink
    return tuple(d)


def mutate_matrix(matrix, k):
    """Matrix mutation in direction k (1-based, mutable): row k is negated,
    and B'_ij = B_ij + |B_ik| [B_kj]_+ if B_ik > 0, B_ij + |B_ik| [B_kj]_-
    if B_ik < 0, with column k negated."""
    rows = matrix.rows
    if not (1 <= k <= len(rows)):
        raise ValueError(f"mutation direction {k} not in 1..{len(rows)}")
    kk = k - 1
    pivot = rows[kk]
    out = []
    for i, row in enumerate(rows):
        bik = row[kk]
        if i == kk:
            row = tuple([-b for b in row])
        elif bik:   # a row with B_ik = 0 is unchanged
            row = _mutated_row(row, pivot, bik)
            row[kk] = -bik
            row = tuple(row)
        out.append(row)
    # the one build past ExchangeMatrix's checks: mutation keeps the
    # skew-symmetrizer of a validated matrix (Fomin-Zelevinsky, *Cluster
    # algebras I*, Prop. 4.5)
    mutated = object.__new__(ExchangeMatrix)
    _set(mutated, "m", matrix.m)
    _set(mutated, "n", matrix.n)
    _set(mutated, "rows", tuple(out))
    return mutated


def _mutated_row(row, pivot, bik):
    """``row`` plus |bik| times the part of ``pivot`` of the sign of bik,
    as a list: the mutation of a matrix row (but for its column k) or of a
    c-vector, whose matrix row has B_ik = bik != 0."""
    if bik > 0:
        return [b + bik * p if p > 0 else b for b, p in zip(row, pivot)]
    return [b - bik * p if p < 0 else b for b, p in zip(row, pivot)]


def prime_toggle(name):
    """Append a prime, or strip one."""
    return name[:-1] if name.endswith("'") else name + "'"


def _fresh(name, taken):
    """``name``, primed until it is not a key of the dict ``taken``, which
    then takes it.  A key's value is None or a candidate, the key with more
    primes, such that every name from the key up to the candidate is taken.
    The names passed over skip to the result primed once, so a walk's naming
    stays linear in its names however long their runs of primes grow."""
    passed = []
    while name in taken:
        passed.append(name)
        name = taken[name] or name + "'"
    taken[name] = None
    skip = name + "'"
    for nm in passed:
        taken[nm] = skip
    return name


def prime_namer(seed, k):
    """The default namer: the prime-toggle of the name at slot k, with primes
    appended until it differs from every name of the seed and is not reserved."""
    return _fresh(prime_toggle(seed.names[k - 1]), dict.fromkeys((*seed.names, *_RESERVED)))


def _walk_namer(seed, namer=prime_namer):
    """The naming routine ``(s, k) -> name`` of a walk from ``seed``.  The
    variable that replaces slot k of s is told apart by g-vector (``g``, if
    given): the first time it is met it is named ``namer(s, k)``, a valid
    name, primed until it differs from every name given so far; it keeps it."""
    names, taken = dict(zip(seed.gvectors, seed.names)), dict.fromkeys(seed.names)

    def name(s, k, g=None):
        g = s._partner_gvector(k) if g is None else g
        if g not in names:
            names[g] = _fresh(_check_name(namer(s, k)), taken)
        return names[g]
    return name


def _partner_names(seed, namer):
    """Names of the once-mutated partners of the m mutable variables: the
    first ring of a walk from ``seed``, in slot order.  A walk's own naming
    routine as ``namer`` keeps that walk's names, which are fresh already."""
    name = _walk_namer(seed, namer)
    return tuple(name(seed, i) for i in range(1, seed.matrix.m + 1))


def _chart(seed, k=None, name=None):
    """A seed's chart ``(matrix, names)``, all that a 2-form reads of it; with
    ``k``, that of mu_k(seed), its new variable ``name`` or prime-named."""
    if k is None:
        return seed.matrix, seed.names
    matrix = mutate_matrix(seed.matrix, k)     # first: it checks k
    name = prime_namer(seed, k) if name is None else name
    return matrix, seed.names[:k - 1] + (name,) + seed.names[k:]


def _exchange_monomials(row, names):
    """P+ and P- of a matrix row over its columns' names, as ``(name,
    exponent)`` factors in column order: B_ij > 0 in P+, B_ij < 0 in P-."""
    return (tuple((nm, b) for nm, b in zip(names, row) if b > 0),
            tuple((nm, -b) for nm, b in zip(names, row) if b < 0))


def _partner(seed, k):
    """The once-mutated partner x_k' = P+ x_k^-1 + P- x_k^-1 over
    ``seed.chart()``: row k has B_kk = 0, so x_k is in neither monomial and
    the partner is two Laurent monomials, with no division."""
    table, x_k = seed.chart(), seed.names[k - 1]
    pos, neg = _exchange_monomials(seed.matrix.rows[k - 1], seed.names)
    return (LaurentPoly.monomial(table, {**dict(pos), x_k: -1})
            + LaurentPoly.monomial(table, {**dict(neg), x_k: -1}))


class Seed(_Record):
    """Exchange matrix plus labelled variables, with the g-vectors of all
    ``n`` variables (frozen ones keep their unit vectors) and the c-vectors
    of the ``m`` mutable slots, both relative to principal coefficients at
    the root seed where they are the identity.  ``Seed(...)`` trusts its
    fields; ``Seed.initial`` is the gate for names and matrices from outside."""

    __slots__ = ("matrix", "names", "gvectors", "cvectors", "_table")

    def __init__(self, matrix, names, gvectors, cvectors):
        _set(self, "matrix", matrix)
        _set(self, "names", names)
        _set(self, "gvectors", gvectors)
        _set(self, "cvectors", cvectors)

    @classmethod
    def initial(cls, matrix, names):
        names = VarTable(names).names   # valid and distinct, or ValueError
        if len(names) != matrix.n:
            raise ValueError(f"expected {matrix.n} names, got {len(names)}")
        m, n = matrix.m, matrix.n
        unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls(matrix, names, unit, tuple(row[:m] for row in unit[:m]))

    def chart(self):
        """Variable table of this seed's own chart, one per seed, built on
        first read."""
        table = getattr(self, "_table", None)
        if table is None:
            table = VarTable(self.names)
            _set(self, "_table", table)
        return table

    def _partner_gvector(self, k):
        """g-vector of the variable that replaces slot k under mutation:
        -g_k + sum_j [-e B_kj]_+ g_j over mutable j, e the sign of c_k."""
        sign = 1 if max(self.cvectors[k - 1]) > 0 else -1
        g = [-x for x in self.gvectors[k - 1]]
        for b, gj in zip(self.matrix.rows[k - 1], self.gvectors[:self.matrix.m]):
            if -sign * b > 0:
                g = [x - sign * b * y for x, y in zip(g, gj)]
        return tuple(g)

    def mutated(self, k, new_name=None):
        """Seed mutation in direction k; the replaced variable is renamed
        ``new_name``, by default ``prime_namer(self, k)``; a new name other
        than the old one must be valid and carried by no other slot, else
        ValueError.  The c-vectors mutate as m extra matrix columns."""
        matrix, names = _chart(self, k, new_name)
        if new_name is not None and new_name != self.names[k - 1]:
            _check_name(new_name, self.names)
        kk = k - 1
        pivot = self.cvectors[kk]
        cvectors = []
        for i, (row, c) in enumerate(zip(self.matrix.rows, self.cvectors)):
            if i == kk:
                c = tuple([-x for x in c])
            elif row[kk]:
                c = tuple(_mutated_row(c, pivot, row[kk]))
            cvectors.append(c)
        return Seed(matrix, names, self.gvectors[:kk] + (self._partner_gvector(k),)
                    + self.gvectors[k:], tuple(cvectors))

    def cluster_key(self):
        """Order-free identity of the cluster: its sorted g-vectors."""
        return tuple(sorted(self.gvectors))


def find_directed_cycle(matrix):
    """Directed cycle in the quiver on mutable indices (edge i->j iff
    B_ij > 0), as a 1-based tuple, or None.  Deterministic: DFS from the
    lowest index with neighbours taken in ascending order.  The DFS keeps
    its own stack, so long quivers do not hit the recursion limit."""
    m, rows = matrix.m, matrix.rows
    color = [0] * m
    for root in range(m):
        if color[root]:
            continue
        color[root] = 1
        path = [root]
        pending = [iter(range(m))]   # neighbours still to try, per path node
        while path:
            u = path[-1]
            for v in pending[-1]:
                if v == u or rows[u][v] <= 0:
                    continue
                if color[v] == 1:
                    return tuple(w + 1 for w in path[path.index(v):])
                if color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    pending.append(iter(range(m)))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def is_acyclic(matrix):
    return find_directed_cycle(matrix) is None


def _walk(seed, max_depth, name=None):
    """Breadth-first walk of the exchange graph from ``seed``, yielding
    ``(seed, depth)`` for each distinct cluster (by ``cluster_key``) the
    moment it is discovered, the start first; discovery order is also
    expansion order.  Seeds at ``max_depth`` are not expanded.  New
    variables are named by ``name``, a ``_walk_namer`` from ``seed``.
    Each edge of the exchange graph, a cluster's key and the g-vector it
    gives up, is mutated along at most once: mutation is an involution, so
    when (s, k) lands on t the edge (t, k) leads back to s, seen, and is
    recorded to be skipped; a record is dropped when it is used."""
    name = name or _walk_namer(seed)
    start = seed.cluster_key()
    seen = {start}
    crossed = set()   # (key of t, g-vector t gives up) of edges already crossed
    queue = deque([(seed, 0, start)])
    yield seed, 0
    while queue:
        s, depth, s_key = queue.popleft()
        if depth == max_depth:
            continue
        for k, g in enumerate(s.gvectors[:s.matrix.m], 1):
            if (edge := (s_key, g)) in crossed:
                crossed.remove(edge)
                continue
            # mutate under the old name and name the variable once the
            # cluster proves new: a new g-vector always makes a new cluster
            t = s.mutated(k, s.names[k - 1])
            key = t.cluster_key()
            crossed.add((key, t.gvectors[k - 1]))
            if key in seen:
                continue
            seen.add(key)
            new_name = name(s, k, t.gvectors[k - 1])
            t = Seed(t.matrix, t.names[:k - 1] + (new_name,) + t.names[k:],
                     t.gvectors, t.cvectors)
            queue.append((t, depth + 1, key))
            yield t, depth + 1


# a walk's default budget: clusters kept, and how deep it goes
MAX_SEEDS, MAX_DEPTH = 1000, 16


def _budgeted(walk, max_seeds, max_depth):
    """The first ``max_seeds`` clusters of ``walk``, but always the start; a
    negative budget is a ValueError."""
    if min(max_seeds, max_depth) < 0:
        raise ValueError(
            f"negative budget: max_seeds={max_seeds}, max_depth={max_depth}")
    return (step for _, step in zip(range(max(max_seeds, 1)), walk))


def find_acyclic_seed(seed, max_seeds=MAX_SEEDS, max_depth=MAX_DEPTH):
    """Breadth-first search of the mutation graph for an acyclic seed among
    the first max_seeds distinct clusters in breadth-first order, none
    deeper than max_depth; raises NotFoundWithinBudget if none is."""
    for s, _ in _budgeted(_walk(seed, max_depth), max_seeds, max_depth):
        if is_acyclic(s.matrix):
            return s
    raise NotFoundWithinBudget("acyclic seed", max_seeds, max_depth)


class Presentation(_Record):
    """Generators-and-relations chart of an acyclic seed: its variables, then
    the once-mutated partners of the mutable ones.  Relation i is x_i * x_i' -
    P_i, P_i the exchange binomial of row i in the seed's variables, so x_i'
    occurs in relation i alone and its partial by x_j' is x_i if j = i, else 0."""

    __slots__ = ("names", "primed_names", "frozen_names", "table", "relations", "_partials")

    def __init__(self, names, primed_names, frozen_names, table, relations):
        self._fill(names, primed_names, frozen_names, table, relations)

    @property
    def _jacobian(self):
        """Each relation's partials by generator, in table order, built on
        first read."""
        partials = getattr(self, "_partials", None)
        if partials is None:
            partials = tuple(tuple(rel.partial(nm) for nm in self.table.names)
                             for rel in self.relations)
            _set(self, "_partials", partials)
        return partials


def acyclic_presentation(seed, namer=prime_namer):
    """Presentation of an acyclic seed (NotAcyclic names a cycle), its
    partners named by ``_partner_names``."""
    cycle = find_directed_cycle(seed.matrix)
    if cycle is not None:
        raise NotAcyclic(cycle)
    primed_names = _partner_names(seed, namer)
    table = VarTable(seed.names + primed_names)
    gens = {nm: LaurentPoly.variable(table, nm) for nm in table.names}
    relations = []
    for row, nm, partner in zip(seed.matrix.rows, seed.names, primed_names):
        pos, neg = (LaurentPoly.monomial(table, dict(factors))
                    for factors in _exchange_monomials(row, seed.names))
        relations.append(gens[nm] * gens[partner] - (pos + neg))
    return Presentation(seed.names, primed_names, seed.names[seed.matrix.m:], table,
                        tuple(relations))


class ExchangeRelation(_Record):
    """One mutation step recorded against an exploration: the variable
    replaced, its partner's name (if the exploration reached it), the two
    exchange monomials as (name, exponent) factor lists, and ``binomial``,
    the number of P+ + P- among the exploration's distinct binomials in
    order of first appearance: both directions of an edge share it."""

    __slots__ = ("seed_index", "direction", "var", "partner", "pos", "neg", "binomial")

    def __init__(self, seed_index, direction, var, partner, pos, neg, binomial):
        _set(self, "seed_index", seed_index)
        _set(self, "direction", direction)
        _set(self, "var", var)
        _set(self, "partner", partner)
        _set(self, "pos", pos)
        _set(self, "neg", neg)
        _set(self, "binomial", binomial)


class Exploration:
    """A connected family of seeds with globally consistent variable names.

    ``variables`` maps each distinct variable name, told apart by g-vector,
    to its expansion in the first seed's chart, in order of first discovery;
    it is computed on first read.  A new variable must sit in a slot k of a
    seed that is mu_k of an earlier seed; its expansion is the exchange
    partner there, one exact division, and each power of an expansion that
    the exchange binomials need is formed once.  ``truncated``: the seed
    budget bit, or a kept seed lies unexpanded at the depth cap (``explore``).

    ``relations()`` finds a partner among the kept seeds: the names of a
    seed but slot k's, an almost-cluster, lie in exactly two clusters
    (Fomin-Zelevinsky, *Cluster algebras II*), so one other name found with
    them at some slot is the partner.  Where none is (an edge left unwalked,
    a cluster kept twice or in another slot order) the partner is the name,
    if any, of the g-vector that mu_k gives slot k."""

    def __init__(self, seeds, truncated):
        self.seeds = tuple(seeds)
        if not self.seeds:
            raise ValueError("an exploration needs a seed")
        self.truncated = truncated
        root = self.seeds[0]
        self.frozen_names = root.names[root.matrix.m:]
        self._names = names = dict(zip(root.gvectors, root.names))
        given = set(root.names)
        self._new = []  # (name, parent seed, k) per new variable
        earlier = {}    # (k, g-vectors off slot k) -> a seed holding them
        for s in self.seeds:
            for k, (g, name) in enumerate(zip(s.gvectors, s.names), 1):
                if g in names:
                    if names[g] != name:
                        raise ValueError(
                            f"variable named both {names[g]!r} and {name!r}")
                    continue
                if name in given:
                    raise ValueError(f"name {name!r} reused for a new variable")
                parent = earlier.get((k, s.gvectors[:k - 1] + s.gvectors[k:]))
                if parent is None:
                    raise ValueError(f"new variable {name!r} is not one "
                                     f"mutation away from an earlier seed")
                self._new.append((name, parent, k))
                names[g] = name
                given.add(name)
            for k in range(1, s.matrix.m + 1):
                earlier.setdefault((k, s.gvectors[:k - 1] + s.gvectors[k:]), s)

    @cached_property
    def variables(self):
        table = self.seeds[0].chart()
        variables = {nm: LaurentPoly.variable(table, nm) for nm in self.seeds[0].names}
        power = cache(lambda name, e: variables[name] ** e)
        one = LaurentPoly.constant(table, 1)
        # a parent's names are the exploration's, as __init__ checks
        for name, parent, k in self._new:
            pos, neg = _exchange_monomials(parent.matrix.rows[k - 1], parent.names)
            binomial = (prod([power(nm, e) for nm, e in pos], start=one)
                        + prod([power(nm, e) for nm, e in neg], start=one))
            try:
                variables[name] = (binomial / variables[parent.names[k - 1]]).as_laurent()
            except NotLaurent as exc:   # pragma: no cover - Laurent phenomenon
                raise MutationArithmeticError(f"{name} is not Laurent") from exc
        return variables

    @property
    def n_variables(self):
        return len(self._names)

    def relations(self):
        """Every (seed, direction) exchange relation, seeds in discovery
        order and directions ascending."""
        return self._relations

    @cached_property
    def _relations(self):
        # Two seeds holding an almost-cluster in the same order around slot
        # k are one seed, or one mutation apart: a cluster determines its
        # seed, so the second has the first's P+ and P- at k, or swapped.
        almost = {}  # names but slot k's -> [names found at k, first edge there]
        entries = []
        for s in self.seeds:
            names = s.names
            for k in range(s.matrix.m):
                entry = almost.setdefault(names[:k] + names[k + 1:], [set(), None])
                entry[0].add(names[k])
                entries.append(entry)
        entries = iter(entries)
        rels = []
        binomials = {}  # {P+, P-} as factor sets -> number
        for idx, s in enumerate(self.seeds):
            names = s.names
            for k in range(1, s.matrix.m + 1):
                var = names[k - 1]
                entry = next(entries)
                found, edge = entry
                if len(found) == 2:
                    a, b = found
                    partner = b if a == var else a
                else:
                    partner = self._names.get(s._partner_gvector(k))
                if edge is not None and edge[0] == k:
                    _, first, pos, neg, number = edge
                    if first != var:
                        pos, neg = neg, pos
                else:
                    pos, neg = _exchange_monomials(s.matrix.rows[k - 1], names)
                    number = binomials.setdefault(
                        frozenset((frozenset(pos), frozenset(neg))), len(binomials))
                    if edge is None:
                        entry[1] = (k, var, pos, neg, number)
                rels.append(ExchangeRelation(idx, k, var, partner, pos, neg, number))
        return rels

    @cached_property
    def _equations(self):
        """The distinct exchange equations f*f' = P, one per unordered
        {var, partner} pair and binomial: the first relation of each, and
        each relation's equation number, in ``relations()`` order.  Both
        directions of an edge and every seed holding the pair share one."""
        firsts, numbers, seen = [], [], {}  # (binomial, f, f') -> number
        for rel in self._relations:
            n = seen.get((rel.binomial, rel.var, rel.partner))
            if n is None:
                n = seen[rel.binomial, rel.var, rel.partner] = len(firsts)
                seen[rel.binomial, rel.partner, rel.var] = n
                firsts.append(rel)
            numbers.append(n)
        return firsts, numbers


def explore(seed, max_seeds=MAX_SEEDS, max_depth=MAX_DEPTH, namer=prime_namer):
    """Breadth-first exploration of the mutation graph from a seed.

    Keeps the first max_seeds distinct clusters in breadth-first order,
    none deeper than max_depth.  Clusters and variables are identified by
    g-vectors, so the walk terminates on finite exchange graphs; variables
    are named by ``_walk_namer(seed, namer)``.  ``truncated`` is set
    when the seed budget bites or a node at the depth cap is left
    unexpanded.
    """
    walk = _walk(seed, max_depth, _walk_namer(seed, namer))
    kept = list(_budgeted(walk, max_seeds, max_depth))
    truncated = (next(walk, None) is not None
                 or any(depth == max_depth for _, depth in kept))
    return Exploration([s for s, _ in kept], truncated)


# ---------------------------------------------------------------------------
# seed files
# ---------------------------------------------------------------------------

class InputFileError(ValueError):
    """A seed, form or point file is malformed at ``filename:line``."""

    def __init__(self, filename, line, reason):
        self.filename = filename
        self.line = line
        self.reason = reason
        super().__init__(f"{filename}:{line}: {reason}")


SeedFileError = InputFileError


def _content_lines(text):
    """``(line number, text)`` for each line not blank once its ``#``
    comment is cut; the reader of every input file format."""
    for no, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield no, stripped


def parse_seed_file(text, filename="<input>"):
    """Parse the line-oriented seed format::

        rank 3
        mutable 1
        names x c1 c2
        row 0 1 1

    ``#`` starts a comment.  Errors carry the file name and line number.
    """
    items = [(no, line.split()) for no, line in _content_lines(text)]
    last_line = len(text.splitlines()) or 1
    cursor = 0

    def take(keyword):
        nonlocal cursor
        if cursor >= len(items):
            raise SeedFileError(filename, last_line, f"expected '{keyword}' line")
        no, tokens = items[cursor]
        if tokens[0] != keyword:
            raise SeedFileError(filename, no, f"expected '{keyword}', got '{tokens[0]}'")
        cursor += 1
        return no, tokens[1:]

    def take_int(keyword):
        no, rest = take(keyword)
        if len(rest) != 1 or not _is_int(rest[0]):
            raise SeedFileError(filename, no, f"{keyword} must be a single integer")
        return no, int(rest[0])

    _, n = take_int("rank")
    no_m, m = take_int("mutable")
    if not (1 <= m <= n):
        raise SeedFileError(filename, no_m,
                            f"mutable must be between 1 and rank, got {m}")
    no_names, names = take("names")
    if len(names) != n:
        raise SeedFileError(filename, no_names,
                            f"expected {n} names, got {len(names)}")
    try:
        VarTable(names)
    except ValueError as exc:
        raise SeedFileError(filename, no_names, str(exc)) from None
    rows = []
    no_row = no_names
    for _ in range(m):
        no_row, rest = take("row")
        if len(rest) != n:
            raise SeedFileError(filename, no_row,
                                f"expected {n} entries, got {len(rest)}")
        for tok in rest:
            if not _is_int(tok):
                raise SeedFileError(filename, no_row,
                                    f"'{tok}' is not an integer")
        rows.append(tuple(int(tok) for tok in rest))
    if cursor < len(items):
        no, tokens = items[cursor]
        raise SeedFileError(filename, no, f"extra content: '{' '.join(tokens)}'")
    try:
        matrix = ExchangeMatrix(m, n, tuple(rows))
    except NotSkewSymmetrizable as exc:
        raise SeedFileError(
            filename, no_row,
            f"matrix is not skew-symmetrizable ({exc})") from None
    except ValueError as exc:
        raise SeedFileError(filename, no_row, str(exc)) from None
    return Seed.initial(matrix, names)


def _is_int(token):
    if token.startswith(("-", "+")):
        token = token[1:]
    return token.isascii() and token.isdecimal()


def emit_seed_file(seed):
    """Canonical text form of a seed; parse . emit is the identity on bytes."""
    lines = [
        f"rank {seed.matrix.n}",
        f"mutable {seed.matrix.m}",
        "names " + " ".join(seed.names),
    ]
    for row in seed.matrix.rows:
        lines.append("row " + " ".join(str(b) for b in row))
    return "\n".join(lines) + "\n"
