"""The three workloads: seeded task lists with an independent oracle each.

A workload builder takes the clusterwp package, a seeded `random.Random`
and a scratch directory, writes its input files there, prebuilds whatever
its tasks take as arguments, and returns the tasks.  Building is set-up;
only `Task.run` is timed.  `Task.check` receives what `run` returned and
gives None when the output is right, otherwise a one-line reason.  Checks
read the program's output (text, or for forms the text `emit_form_file`
renders) and recompute nothing with clusterwp: counts come from theorems,
relations and forms are recomputed with `qi` arithmetic from the integer
matrices of `gen`.

Each task has its own input: a start seed, budget, point or pattern is
never shared by two tasks of one round.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import gen
from qi import ONE, evaluate, of_gaussian, qinv, qmul, qsub


class Task(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]


def cli(cw, argv):
    """`clusterwp.cli.main(argv)` with stdout and stderr captured:
    returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cw.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_task(cw, name, argv, check):
    return Task(name, lambda: cli(cw, argv), check)


def write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _expect_code(result, code):
    if result[0] != code:
        return f"exit {result[0]}, expected {code}"
    return None


def _ones(names):
    return {name: ONE for name in names}


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def check_explore(result, names, clusters, variables, truncated):
    """Census output: the counts, one line per cluster, one expansion per new
    variable, and every expansion a positive integer at the all-ones point
    (Laurent phenomenon plus positivity)."""
    bad = _expect_code(result, 0)
    if bad:
        return bad
    lines = result[1].splitlines()
    head = [f"clusters {clusters}", f"variables {variables}",
            f"truncated {'yes' if truncated else 'no'}"]
    if lines[:3] != head:
        return f"header {lines[:3]}, expected {head}"
    body = lines[3:]
    cluster_lines = [ln for ln in body if ln.startswith("cluster ")]
    variable_lines = [ln for ln in body if ln.startswith("variable ")]
    if len(cluster_lines) != clusters or len(variable_lines) != variables - len(names):
        return f"{len(cluster_lines)} cluster and {len(variable_lines)} variable lines"
    seen = set()
    for ln in cluster_lines:
        members = frozenset(ln.split(": ", 1)[1].split())
        if len(members) != len(names) or members in seen:
            return f"bad or repeated cluster line {ln!r}"
        seen.add(members)
    ones = _ones(names)
    for ln in variable_lines:
        value = evaluate(ln.split(" = ", 1)[1], ones)
        if value[1] or value[0].denominator != 1 or value[0] <= 0:
            return f"{ln.split(' = ')[0]} is {value} at the all-ones point"
    return None


def check_acyclic_search(result, n):
    bad = _expect_code(result, 0)
    if bad:
        return bad
    rows, names = gen.parse_seed_text(result[1])
    if len(rows) != n or len(names) != n:
        return f"found seed has {len(rows)} rows over {len(names)} names"
    if gen.find_cycle(rows) is not None:
        return "found seed is not acyclic"
    if not gen.is_path_orientation(rows):
        return "found seed is not an orientation of the A_n path"
    return None


def census(cw, rng, tmp):
    """Exchange-graph walks: full finite-type censuses, budgeted walks of
    the infinite Markov and affine graphs, and acyclic-seed searches."""
    tasks = []

    def seed_file(rows):
        names = gen.fresh_names(rng, len(rows))
        return write(tmp, f"c{len(tasks)}.seed", gen.seed_text(rows, names)), names

    plan = [(3, 8), (4, 12), ("D4", 12), (5, 3), (6, 1)]
    for kind, count in plan:
        for _ in range(count):
            if kind == "D4":
                rows, expected = gen.d4_matrix(), gen.D4_CENSUS
            else:
                rows, expected = gen.path_matrix(kind), gen.a_census(kind)
            path, names = seed_file(gen.class_member(rng, rows, rng.randint(4, 12)))
            tasks.append(cli_task(
                cw, f"explore-{'D4' if kind == 'D4' else f'A{kind}'}",
                ["explore", path],
                lambda r, names=names, e=expected: check_explore(r, names, *e, False)))
    # fixed budgets: the cost of these walks grows steeply with the budget
    for budget in (60, 100):
        path, names = seed_file(gen.class_member(rng, gen.MARKOV, rng.randint(1, 6)))
        tasks.append(cli_task(
            cw, "explore-markov", ["explore", path, "--max-seeds", str(budget)],
            lambda r, names=names, b=budget: check_explore(r, names, b, b + 2, True)))
    budget = 18
    path, names = seed_file(gen.permuted(rng, gen.AFFINE))
    tasks.append(cli_task(
        cw, "explore-affine",
        ["explore", path, "--max-seeds", str(budget), "--max-depth", "100"],
        lambda r, names=names, b=budget: check_explore(r, names, b, b + 1, True)))
    for _ in range(8):
        n = rng.randint(3, 6)
        path, _ = seed_file(gen.cyclic_member(rng, gen.path_matrix(n)))
        tasks.append(cli_task(cw, "acyclic-search", ["acyclic", path, "--search", "500"],
                              lambda r, n=n: check_acyclic_search(r, n)))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------


def check_invariance(result, m, depth):
    """Every sequence of length 1..depth over m directions, in order, passes."""
    bad = _expect_code(result, 0)
    if bad:
        return bad
    expected = [",".join(map(str, ks)) + " pass"
                for d in range(1, depth + 1)
                for ks in itertools.product(range(1, m + 1), repeat=d)]
    expected.append(f"all {gen.sequence_count(m, depth)} sequences pass")
    if result[1].splitlines() != expected:
        return "sequence report differs from the expected all-pass report"
    return None


def _sample_point(rng, names):
    return {name: gen.qi_value(rng) for name in names}


def check_difference(result, names, slot, delta, samples):
    """`equal` found the forms unequal and printed exactly one difference
    line: slot (a, b) (0-based, a < b) with coefficient `delta`, checked by
    exact evaluation at the sample points."""
    bad = _expect_code(result, 1)
    if bad:
        return bad
    lines = result[1].splitlines()
    if lines[:2] != ["not equal", "difference (first - second):"] or len(lines) != 3:
        return f"unexpected output {lines[:3]}"
    coeff, g, h = (part.strip() for part in lines[2].split(";"))
    if (g, h) != (names[slot[0]], names[slot[1]]):
        return f"difference in slot {g},{h}, expected {names[slot[0]]},{names[slot[1]]}"
    for point in samples:
        if evaluate(coeff, point) != evaluate(delta, point):
            return f"difference {coeff!r} is not {delta!r}"
    return None


def invariance(cw, rng, tmp):
    """Mutation invariance of the chart form (chained pullbacks) on the
    catalog examples and on A_4-class seeds, plus many small `equal` runs
    whose verdicts are known: the regularization rewrite is equal to the
    chart form, a one-term perturbation of it is not."""
    tasks = []
    # markov at depth 3 (39 sequences, 6-11 s in one task) is left out: a
    # single task that long is most of a round, the reference slices around
    # it cannot follow the machine's drift during it, and three rounds of it
    # overrun the run's time budget.  Markov-class seeds at depth 2 keep the
    # swelling pullbacks of that class on the clock.
    for key, m, depth in (("sl2", 1, 4), ("affine-a11", 2, 4), ("a3", 3, 3), ("markov", 3, 2)):
        tasks.append(cli_task(cw, f"invariance-{key}",
                              ["invariance", key, "--depth", str(depth)],
                              lambda r, m=m, d=depth: check_invariance(r, m, d)))
    for no, (kind, start) in enumerate([("A4", gen.path_matrix(4))] * 10
                                       + [("markov", gen.MARKOV)] * 4):
        rows = gen.class_member(rng, start, rng.randint(4, 12))
        names = gen.fresh_names(rng, len(rows))
        path = write(tmp, f"i{no}.seed", gen.seed_text(rows, names))
        tasks.append(cli_task(cw, f"invariance-{kind}", ["invariance", path, "--depth", "2"],
                              lambda r, m=len(rows): check_invariance(r, m, 2)))
    n = 4
    for no in range(16):
        rows = gen.class_member(rng, gen.path_matrix(n), rng.randint(4, 12))
        names = gen.fresh_names(rng, n)
        primes = [f"{name}p" for name in names]
        vanishing = gen.independent_set(rng, rows, 1 + no % 2)
        seed_path = write(tmp, f"e{no}.seed", gen.seed_text(rows, names))
        wp_path = write(tmp, f"e{no}-wp.form", gen.wp_form_text(rows, names))
        rewrite = gen.regularized_form_text(rows, names, vanishing, primes)
        rewrite_path = write(tmp, f"e{no}-rewrite.form", rewrite)
        a, b = rng.choice([(i, j) for i in range(n) for j in range(i + 1, n)])
        mono = "*".join(f"{names[j]}^{rng.choice((-2, -1, 1, 2))}"
                        for j in sorted(rng.sample(range(n), 2)))
        delta = f"{gen.qi_expr(gen.qi_value(rng))}*{mono}"
        perturbed_path = write(tmp, f"e{no}-perturbed.form",
                               rewrite + f"{delta} ; {names[a]} ; {names[b]}\n")
        samples = [_sample_point(rng, names) for _ in range(2)]
        tasks.append(cli_task(cw, "equal-rewrite", ["equal", seed_path, wp_path, rewrite_path],
                              lambda r: _expect_code(r, 0) or (
                                  None if r[1] == "equal\n" else f"printed {r[1]!r}")))
        tasks.append(cli_task(
            cw, "equal-perturbed", ["equal", seed_path, wp_path, perturbed_path],
            lambda r, names=names, s=(a, b), d=delta, p=samples:
                check_difference(r, names, s, f"-({d})", p)))
    candidate = cli(cw, ["catalog", "affine-a11", "--form", "candidate"])[1]
    cand = write(tmp, "candidate.form", candidate)
    affine_wp = write(tmp, "affine-wp.form", gen.wp_form_text(gen.AFFINE, ["x0", "x1"]))
    fixture = "not equal\ndifference (first - second):\nx0^-1*x1^-1 ; x0 ; x1\n"
    tasks.append(cli_task(cw, "equal-candidate", ["equal", "affine-a11", affine_wp, cand],
                          lambda r: _expect_code(r, 1) or (
                              None if r[1] == fixture else f"printed {r[1]!r}")))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class Census:
    """The benchmark's own view of an exploration: each seed's names and
    rows, and for every (seed, direction) the partner variable, found as the
    other explored cluster through the remaining n - 1 variables (in finite
    type exactly two clusters contain a given n - 1 of them)."""

    def __init__(self, exploration):
        self.seeds = [(tuple(s.names), [list(r) for r in s.matrix.rows])
                      for s in exploration.seeds]
        completions = {}
        for names, _ in self.seeds:
            for k in range(len(names)):
                rest = frozenset(names[:k] + names[k + 1:])
                completions.setdefault(rest, set()).add(names[k])
        self.partner = {}
        for names, _ in self.seeds:
            for k in range(len(names)):
                others = completions[frozenset(names[:k] + names[k + 1:])] - {names[k]}
                if others:
                    self.partner[(names, k)] = others.pop()

    def relations(self):
        for names, rows in self.seeds:
            for k in range(len(rows)):
                partner = self.partner.get((names, k))
                if partner is not None:
                    yield names, rows, k, partner

    def propagate(self, values):
        """Every variable's value, by x' = P/x along the relations."""
        values = dict(values)
        changed = True
        while changed:
            changed = False
            for names, rows, k, partner in self.relations():
                if partner not in values and names[k] in values and \
                        all(nm in values for nm, b in zip(names, rows[k]) if b):
                    values[partner] = qmul(gen.binomial_value(values, names, rows[k]),
                                           qinv(values[names[k]]))
                    changed = True
        return values

    def violations(self, values):
        """Number of (seed, direction) relations x x' = P that fail."""
        return sum(qmul(values[names[k]], values[partner])
                   != gen.binomial_value(values, names, rows[k])
                   for names, rows, k, partner in self.relations())

    def verdict(self, values, truncated):
        statuses = []
        for names, _ in self.seeds:
            vals = [values.get(nm) for nm in names]
            if any(v is not None and not any(v) for v in vals):
                statuses.append("zero")
            elif all(v is not None for v in vals):
                statuses.append("nonzero")
            else:
                statuses.append("undetermined")
        if "nonzero" in statuses:
            return "not-deep"
        if "undetermined" in statuses:
            return "inconclusive"
        return "deep-relative" if truncated else "deep"


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NEGATIVE_POWER = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\^-")


def _pairs(assignment):
    return {name: of_gaussian(v) for name, v in assignment.items()}


def _gaussians(cw, values):
    return {name: cw.GaussianRational(re, im) for name, (re, im) in values.items()}


def check_propagation(result, census_, expected, truncated):
    (full, issues), report = result
    if issues:
        return f"propagation reported {issues[0]}"
    got = _pairs(full.assignment)
    if set(got) != {name for names, _ in census_.seeds for name in names}:
        return "the propagated point does not assign every explored variable"
    if got != expected:
        missing = sorted(set(expected) - set(got))
        return f"propagated values differ (unassigned: {missing[:3]})"
    if census_.violations(got):
        return "a relation x x' = P fails at the propagated point"
    want = census_.verdict(expected, truncated)
    if report.verdict != want:
        return f"verdict {report.verdict}, expected {want}"
    return None


def check_regularization(cw, result, rows, names, vanishing, samples):
    """The rewrite keeps every vanishing variable out of its written
    denominators, and its chart reduction is the chart form b_ij/(f_i f_j)."""
    form, reduced = result
    banned = {names[i] for i in vanishing}
    for line in cw.emit_form_file(form).splitlines():
        if line.startswith("gen "):
            continue
        coeff = line.split(";")[0]
        den = coeff.split(")/(", 1)[1] if ")/(" in coeff else ""
        written = set(_NEGATIVE_POWER.findall(coeff)) | set(_NAME.findall(den))
        if banned & written:
            return f"{sorted(banned & written)} in a written denominator of {coeff.strip()!r}"
    wanted = {(i, j) for i in range(len(names)) for j in range(i + 1, len(names)) if rows[i][j]}
    got = {}
    for line in cw.emit_form_file(reduced).splitlines():
        coeff, g, h = (part.strip() for part in line.split(";"))
        got[(names.index(g), names.index(h))] = coeff
    if set(got) != wanted:
        return f"reduced slots {sorted(got)}, expected {sorted(wanted)}"
    for (i, j), coeff in got.items():
        for point in samples:
            want = qmul((Fraction(rows[i][j]), Fraction(0)),
                        qinv(qmul(point[names[i]], point[names[j]])))
            if evaluate(coeff, point) != want:
                return f"slot {i + 1},{j + 1} reduces to {coeff!r}"
    return None


def points(cw, rng, tmp):
    """Library calls at seeded Q(i) points: propagation and deep-point
    witnesses over prebuilt A_5-class explorations, point verification,
    tangent dimensions on A_n presentations, and local regularization."""
    tasks = []
    for _ in range(4):
        rows = gen.class_member(rng, gen.path_matrix(5), rng.randint(4, 12))
        names = gen.fresh_names(rng, 5)
        seed = cw.parse_seed_file(gen.seed_text(rows, names))
        exploration = cw.explore(seed)
        mine = Census(exploration)
        for _ in range(3):
            start = _sample_point(rng, names)
            expected = mine.propagate(start)
            point = cw.AlgebraPoint(_gaussians(cw, start), exploration)

            def run(point=point, exploration=exploration):
                full = cw.propagate_point(point, exploration)
                return full, cw.deep_witness(full[0], exploration)
            tasks.append(Task("propagate-deep", run,
                              lambda r, c=mine, e=expected, t=exploration.truncated:
                                  check_propagation(r, c, e, t)))
            for perturb in (False, True):
                values = dict(expected)
                if perturb:
                    victim = rng.choice(sorted(set(values) - set(names)))
                    values[victim] = qsub(values[victim], ONE)
                full = cw.AlgebraPoint(_gaussians(cw, values), exploration)
                tasks.append(Task(
                    "verify-point", lambda p=full: cw.verify_point(p),
                    lambda r, c=mine, v=values: _check_issue_count(r, c.violations(v))))
    for n in range(3, 9):
        rows = gen.acyclic_path(rng, n)
        names = gen.fresh_names(rng, n)
        primes = [f"{name}'" for name in names]
        pres = cw.acyclic_presentation(cw.parse_seed_file(gen.seed_text(rows, names)))
        # task_p50_s falls among the A_5 tangent tasks; enough of them keep
        # it inside that one kind of task rather than on its edge
        for _ in range(24 if n == 5 else 8):
            values = gen.presentation_point(rng, rows, names, primes)
            point = cw.AlgebraPoint(_gaussians(cw, values), pres)
            tasks.append(Task(f"tangent-A{n}",
                              lambda p=point, pres=pres: cw.tangent_dimension(pres, p),
                              lambda r, n=n: None if r == n else f"dimension {r}, expected {n}"))
    for no, n in enumerate((3, 4, 5, 6) * 6):
        rows = gen.class_member(rng, gen.path_matrix(n), rng.randint(4, 12))
        names = gen.fresh_names(rng, n)
        seed = cw.parse_seed_file(gen.seed_text(rows, names))
        vanishing = gen.independent_set(rng, rows, 1 + no % 2)
        pattern = cw.VanishingPattern(seed, frozenset(i + 1 for i in vanishing))

        def run(seed=seed, pattern=pattern):
            form = cw.regularize_at(seed, pattern)
            return form, cw.reduce_to_chart(form, seed)
        samples = [_sample_point(rng, names) for _ in range(2)]
        tasks.append(Task("regularize", run,
                          lambda r, rows=rows, names=names, v=vanishing, s=samples:
                              check_regularization(cw, r, rows, names, v, s)))
        adjacent = [i + 1 for i in gen.adjacent_set(rng, rows)]
        bad = cw.VanishingPattern(seed, frozenset(adjacent))
        tasks.append(Task("regularize-adjacent", lambda s=seed, p=bad: _violation(cw, s, p),
                          lambda r, w=gen.smallest_adjacent_pair(rows, adjacent):
                              None if r == w else f"violation pair {r}, expected {w}"))
    a3, affine = cw.catalog("a3"), cw.catalog("affine-a11")
    generic = cw.AlgebraPoint({"x13": 1, "x14": 1, "x15": 1, "x24": 2, "x35": 2, "x46": 2},
                              a3.presentation)
    for point, want in ((a3.points["deep"], 4), (generic, 3)):
        tasks.append(Task("tangent-fixture",
                          lambda p=point: cw.tangent_dimension(a3.presentation, p),
                          lambda r, w=want: None if r == w else f"dimension {r}, expected {w}"))
    for entry, key, want in ((a3, "deep", "deep"), (affine, "p0", "deep-relative")):
        def run(entry=entry, key=key):
            full, issues = cw.propagate_point(entry.points[key], entry.exploration)
            return issues, cw.deep_witness(full, entry.exploration).verdict
        tasks.append(Task("deep-fixture", run,
                          lambda r, w=want: None if r == ([], w) else f"got {r}, expected {w}"))
    rng.shuffle(tasks)
    return tasks


def _check_issue_count(issues, want):
    return None if len(issues) == want else f"{len(issues)} issues reported, expected {want}"


def _violation(cw, seed, pattern):
    try:
        cw.regularize_at(seed, pattern)
    except cw.HypothesisViolated as exc:
        return exc.pair
    return None


WORKLOADS = {"census": census, "invariance": invariance, "points": points}
