"""Command-line driver.

Exit codes follow one convention everywhere: 0 means the computation
succeeded (and, for yes/no questions, the answer is yes); 1 means the
queried property is false and a counterexample or explanation was
printed; 2 means the invocation or an input file was malformed, with a
single-line diagnostic on stderr naming the file, line, and cause.

The seed argument of every subcommand is either a catalog key (which
brings along that example's naming convention, presentation, and
reference exploration) or the path of a seed file.  All output is
deterministic: same invocation, same bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .catalog import CATALOG_KEYS, catalog
from .forms import (
    check_invariance,
    emit_form_file,
    form_degree,
    form_difference,
    forms_equal,
    parse_form_file,
    reduce_to_chart,
    wp_form,
)
from .regularity import (
    SEARCH_DEPTH,
    AlgebraPoint,
    HypothesisViolated,
    _emit_point,
    constant_vanishing_oracle,
    deep_witness,
    find_regularizing_seed,
    parse_point_file,
    point_vanishing_oracle,
    propagate_point,
    regularize_at,
    tangent_dimension,
)
from .seeds import (
    MAX_DEPTH,
    MAX_SEEDS,
    InputFileError,
    NotAcyclic,
    NotFoundWithinBudget,
    acyclic_presentation,
    emit_seed_file,
    explore,
    find_directed_cycle,
    find_acyclic_seed,
    parse_seed_file,
    prime_namer,
)


class _UsageError(Exception):
    """Bad invocation or bad input: exit 2 with one line on stderr."""


# C0 and C1 controls and the Unicode line and paragraph separators, every
# character that can break a line, as escapes: a diagnostic quoting an
# argument or a path stays on its one line
_ESCAPES = {c: ascii(chr(c))[1:-1] for c in (*range(32), *range(127, 160), 0x2028, 0x2029)}


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and its subparsers, whose errors are ``_UsageError``."""

    def error(self, message):
        raise _UsageError(message)


def _read_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 text "
                          f"({exc.reason} at offset {exc.start})") from None
    except (OSError, ValueError) as exc:    # ValueError: a NUL in the path
        raise _UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _resolve_seed(token):
    """A seed argument is a catalog key or a seed-file path.  Returns
    (seed, namer, catalog-entry-or-None); a seed file names new variables
    with ``prime_namer``."""
    if token in CATALOG_KEYS:
        entry = catalog(token)
        return entry.seed, entry.namer, entry
    try:
        text = _read_file(token)
    except _UsageError:
        raise _UsageError(
            f"{token!r} is not a catalog key ({', '.join(CATALOG_KEYS)}) "
            f"and not a readable seed file") from None
    return parse_seed_file(text, token), prime_namer, None


def _load_point(path, known, entry=None):
    """A point file's assignment.  A name outside ``known`` and the clusters
    of a catalog ``entry`` is a usage error naming the first in file order."""
    values = parse_point_file(_read_file(path), path)
    if entry is not None:
        known = set(known) | _cluster_names(entry.exploration)
    unknown = [name for name in values if name not in known]
    if unknown:
        raise _UsageError(f"{path}: unknown variable {unknown[0]}")
    return values


def _cluster_names(exploration):
    return {name for s in exploration.seeds for name in s.names}


def _cycle_text(cycle):
    return " -> ".join(str(i) for i in cycle)


def _parse_index_list(text, what):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise _UsageError(
            f"{what} must be a comma-separated integer list, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_catalog(args):
    try:
        entry = catalog(args.key)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None
    for kind, items, emit in (("form", entry.forms, emit_form_file),
                              ("point", entry.points, _emit_point)):
        name = getattr(args, kind)
        if name is None:
            continue
        if name not in items:
            raise _UsageError(
                f"entry {args.key!r} has no {kind} {name!r} "
                f"(available: {', '.join(sorted(items)) or 'none'})")
        sys.stdout.write(emit(items[name]))
        return 0
    sys.stdout.write(emit_seed_file(entry.seed))
    return 0


def _cmd_mutate(args):
    seed, namer, _ = _resolve_seed(args.seed)
    current = seed
    for k in args.directions:
        if not (1 <= k <= current.matrix.m):
            raise _UsageError(
                f"direction {k} outside 1..{current.matrix.m}")
        current = current.mutated(k, namer(current, k))
    sys.stdout.write(emit_seed_file(current))
    return 0


def _cmd_explore(args):
    seed, namer, _ = _resolve_seed(args.seed)
    result = explore(seed, max_seeds=args.max_seeds, max_depth=args.max_depth,
                     namer=namer)
    print(f"clusters {len(result.seeds)}")
    print(f"variables {result.n_variables}")
    print(f"truncated {'yes' if result.truncated else 'no'}")
    for no, s in enumerate(result.seeds, 1):
        print(f"cluster {no}: {' '.join(s.names)}")
    initial = set(seed.names)
    for name, expansion in result.variables.items():
        if name not in initial:
            print(f"variable {name} = {expansion.to_expr()}")
    return 0


def _cmd_acyclic(args):
    seed, _, _ = _resolve_seed(args.seed)
    if args.search is None:
        cycle = find_directed_cycle(seed.matrix)
        if cycle is None:
            print("acyclic")
            return 0
        print(f"cycle: {_cycle_text(cycle)}")
        return 1
    sys.stdout.write(emit_seed_file(find_acyclic_seed(seed, max_seeds=args.search)))
    return 0


def _cmd_present(args):
    seed, namer, _ = _resolve_seed(args.seed)
    pres = acyclic_presentation(seed, namer)
    print(f"generators {' '.join(pres.table.names)}")
    if pres.frozen_names:
        print(f"frozen {' '.join(pres.frozen_names)}")
    for rel in pres.relations:
        print(f"relation {rel.to_expr()}")
    return 0


def _cmd_wp(args):
    seed, _, _ = _resolve_seed(args.seed)
    sys.stdout.write(emit_form_file(wp_form(seed)))
    return 0


def _cmd_equal(args):
    seed, _, _ = _resolve_seed(args.seed)
    forms = []
    for path in (args.form_a, args.form_b):
        parsed = parse_form_file(_read_file(path), seed, path)
        forms.append(reduce_to_chart(parsed, seed))
    if forms_equal(forms[0], forms[1]):
        print("equal")
        return 0
    print("not equal")
    diff = form_difference(forms[0], forms[1])
    print("difference (first - second):")
    sys.stdout.write(emit_form_file(diff))
    return 1


def _cmd_invariance(args):
    seed, _, _ = _resolve_seed(args.seed)
    if args.depth < 1:
        raise _UsageError("--depth must be at least 1")
    report = check_invariance(seed, args.depth)
    failures = 0
    for ks, ok in report:
        label = ",".join(str(k) for k in ks)
        print(f"{label} {'pass' if ok else 'FAIL'}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(report)} sequences fail")
        return 1
    print(f"all {len(report)} sequences pass")
    return 0


def _cmd_regularize(args):
    seed, namer, entry = _resolve_seed(args.seed)
    if args.pattern is not None:
        oracle = constant_vanishing_oracle(
            _parse_index_list(args.pattern, "--pattern"))
    else:
        # the names of every cluster it may visit, the start's alone without --search
        known = _cluster_names(explore(seed, max_seeds=args.search or 0,
                                       max_depth=SEARCH_DEPTH, namer=namer))
        oracle = point_vanishing_oracle(AlgebraPoint(_load_point(args.point, known, entry)))
    try:
        if args.search is None:
            form = regularize_at(seed, oracle(seed), namer=namer)
        else:
            found, form = find_regularizing_seed(
                seed, oracle, max_seeds=args.search, namer=namer)
    except HypothesisViolated as exc:
        a, b = exc.pair
        print(f"hypothesis violated: vanishing variables {a} and {b} "
              f"are exchange-adjacent (B_{a}{b} = {seed.matrix.b(a, b)})")
        return 1
    except ValueError as exc:   # a pattern or rewrite the chart does not admit
        raise _UsageError(str(exc)) from None
    if args.search is not None:
        sys.stdout.write(emit_seed_file(found))
        print("form:")
    sys.stdout.write(emit_form_file(form))
    return 0


def _cmd_tangent(args):
    seed, namer, entry = _resolve_seed(args.seed)
    pres = acyclic_presentation(seed, namer)
    point = AlgebraPoint(_load_point(args.point, pres.table.names, entry), pres)
    try:
        dim = tangent_dimension(pres, point)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(dim)
    return 0


def _cmd_grade(args):
    seed, _, _ = _resolve_seed(args.seed)
    if args.weights is not None:
        ws = _parse_index_list(args.weights, "--weights")
        if len(ws) != len(seed.names):
            raise _UsageError(
                f"--weights needs {len(seed.names)} entries "
                f"(one per variable), got {len(ws)}")
        weights = dict(zip(seed.names, ws))
    else:
        weights = {name: 1 for name in seed.names}
    form = wp_form(seed)
    try:
        degree = form_degree(form, weights)
    except ValueError as exc:
        print(str(exc))
        return 1
    print(degree)
    return 0


def _cmd_deep(args):
    seed, _, entry = _resolve_seed(args.seed)
    if entry is not None:
        exploration = entry.exploration
    elif args.max_seeds is None:
        raise _UsageError("--max-seeds is required for file seeds")
    else:
        exploration = explore(seed, max_seeds=args.max_seeds)
    point = AlgebraPoint(_load_point(args.point, _cluster_names(exploration)), exploration)
    full, issues = propagate_point(point, exploration)
    if issues:
        raise _UsageError(f"invalid point: {issues[0]}")
    report = deep_witness(full, exploration)
    for no, (s, status) in enumerate(zip(exploration.seeds,
                                         report.cluster_status), 1):
        print(f"cluster {no} ({' '.join(s.names)}): {status}")
    print(f"verdict {report.verdict}")
    return 0 if report.verdict in ("deep", "deep-relative") else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    parser = _Parser(
        prog="clusterwp",
        description="Exact mutation, 2-form, and regularity computations "
                    "on cluster charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a built-in example")
    p.add_argument("key", help=f"one of: {', '.join(CATALOG_KEYS)}")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--form", metavar="NAME",
                       help="emit this named form instead of the seed")
    group.add_argument("--point", metavar="NAME",
                       help="emit this named point instead of the seed")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("mutate", help="mutate a seed along directions")
    p.add_argument("seed")
    p.add_argument("directions", nargs="+", type=int, metavar="k")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("explore", help="breadth-first mutation census")
    p.add_argument("seed")
    p.add_argument("--max-seeds", type=int, default=MAX_SEEDS)
    p.add_argument("--max-depth", type=int, default=MAX_DEPTH)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("acyclic",
                       help="test acyclicity, or search for an acyclic seed")
    p.add_argument("seed")
    p.add_argument("--search", type=int, metavar="N",
                   help="search up to N seeds for an acyclic one")
    p.set_defaults(func=_cmd_acyclic)

    p = sub.add_parser("present",
                       help="generators and exchange relations (acyclic only)")
    p.add_argument("seed")
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("wp", help="the chart 2-form of a seed")
    p.add_argument("seed")
    p.set_defaults(func=_cmd_wp)

    p = sub.add_parser("equal",
                       help="compare two form files over a seed's chart")
    p.add_argument("seed")
    p.add_argument("form_a")
    p.add_argument("form_b")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("invariance",
                       help="pull back mutated charts' forms and compare")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("regularize",
                       help="regularizing rewrite at a vanishing pattern")
    p.add_argument("seed")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", metavar="FILE",
                       help="read the vanishing pattern off a point file")
    group.add_argument("--pattern", metavar="I,J,...",
                       help="vanishing chart indices")
    p.add_argument("--search", type=int, metavar="N",
                   help="search up to N seeds for a chart where the "
                        "rewrite applies")
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("tangent",
                       help="tangent dimension at a presentation point")
    p.add_argument("seed")
    p.add_argument("--point", metavar="FILE", required=True)
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("grade", help="weighted degree of the chart 2-form")
    p.add_argument("seed")
    p.add_argument("--weights", metavar="W1,...",
                   help="integer weight per variable (default: all ones)")
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("deep",
                       help="deep-point witness over an exploration")
    p.add_argument("seed")
    p.add_argument("--point", metavar="FILE", required=True)
    p.add_argument("--max-seeds", type=int, metavar="N",
                   help="exploration budget for file seeds (catalog seeds "
                        "use their reference exploration)")
    p.set_defaults(func=_cmd_deep)

    return parser


def main(argv=None):
    try:
        rc = _run(argv)
        if sys.stdout is not None:
            sys.stdout.flush()  # buffered output to a closed pipe fails here
        return rc
    except BrokenPipeError:     # exit as SIGPIPE would; shutdown flushes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv):
    try:
        args = _build_parser().parse_args(argv)
        for budget in ("max_seeds", "max_depth", "search"):
            if getattr(args, budget, None) is not None and getattr(args, budget) < 0:
                raise _UsageError(f"--{budget.replace('_', '-')} must not be negative")
        return args.func(args)
    except NotAcyclic as exc:   # present and tangent need an acyclic seed
        print(f"not acyclic: cycle {_cycle_text(exc.cycle)}")
        return 1
    except NotFoundWithinBudget as exc:     # acyclic and regularize --search
        print(f"no {exc.what} found: {exc}")
        return 1
    except (InputFileError, _UsageError) as exc:
        print(f"error: {str(exc).translate(_ESCAPES)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
