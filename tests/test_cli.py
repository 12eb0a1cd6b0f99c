"""Command-line contract: output bytes, exit codes, diagnostics.

Exit codes: 0 success / property holds, 1 property false with printed
counterexample, 2 malformed invocation or input file.

Frozen outputs below were cross-checked against the library-level tests
(the emitters are pinned byte-exactly in test_forms / test_seeds); the
CLI tests mostly assert plumbing, exit codes, and stable formatting.
"""

import contextlib
import inspect
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterwp import seeds as seeds_module
from clusterwp.catalog import catalog
from clusterwp.cli import _build_parser, main
from clusterwp.forms import parse_form_file, reduce_to_chart, wp_form
from clusterwp.regularity import find_regularizing_seed
from clusterwp.seeds import emit_seed_file, explore, is_acyclic, parse_seed_file


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_usage_error(capsys, *argv):
    """``main`` returns 2 with nothing on stdout and one ``error: `` line on
    stderr, which it returns."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, ""), argv
    assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
    return err


# ---------------------------------------------------------------------------
# catalog


def test_catalog_emits_seed_file(capsys):
    rc, out, err = run(capsys, "catalog", "sl2")
    assert rc == 0 and err == ""
    assert out == "rank 3\nmutable 1\nnames x c1 c2\nrow 0 1 1\n"


def test_catalog_point_emission(capsys):
    rc, out, _ = run(capsys, "catalog", "a3", "--point", "deep")
    assert rc == 0
    assert out == (
        "x13 = 0\nx14 = -1\nx15 = 0\n"
        "x24 = 0\nx25 = -1\nx26 = 0\n"
        "x35 = 0\nx36 = -1\nx46 = 0\n"
    )


def test_catalog_form_emission(capsys):
    rc, out, _ = run(capsys, "catalog", "sl2", "--form", "regular")
    assert rc == 0
    assert out == "gen x' = x^-1*c1*c2 + x^-1\nc1^-1*c2^-1 ; x ; x'\n"


def test_catalog_unknown_key(capsys):
    rc, out, err = run(capsys, "catalog", "e8")
    assert rc == 2 and out == ""
    assert err.startswith("error: unknown catalog key 'e8'")


def test_catalog_unknown_form_and_point(capsys):
    rc, out, err = run(capsys, "catalog", "sl2", "--form", "nope")
    assert (rc, out, err) == (
        2, "", "error: entry 'sl2' has no form 'nope' (available: regular)\n")
    rc, out, err = run(capsys, "catalog", "markov", "--form", "nope")
    assert (rc, out, err) == (
        2, "", "error: entry 'markov' has no form 'nope' (available: none)\n")
    rc, out, err = run(capsys, "catalog", "markov", "--point", "nope")
    assert (rc, out, err) == (
        2, "", "error: entry 'markov' has no point 'nope' (available: p0)\n")


# ---------------------------------------------------------------------------
# mutate


def test_mutate_uses_catalog_naming(capsys):
    rc, out, _ = run(capsys, "mutate", "a3", "1")
    assert rc == 0
    assert "names x24 x14 x15" in out.splitlines()


def test_mutate_walks_affine_indices(capsys):
    rc, out, _ = run(capsys, "mutate", "affine-a11", "1", "2", "1")
    assert rc == 0
    assert "names x4 x3" in out.splitlines()


def test_mutate_is_involutive_on_emission(capsys):
    rc, once, _ = run(capsys, "catalog", "sl2")
    rc, twice, _ = run(capsys, "mutate", "sl2", "1", "1")
    assert once == twice


def test_mutate_file_seed_prime_toggles(capsys, tmp_path):
    path = tmp_path / "s.seed"
    path.write_text(emit_seed_file(catalog("sl2").seed))
    rc, out, _ = run(capsys, "mutate", str(path), "1")
    assert rc == 0
    assert "names x' c1 c2" in out.splitlines()


def test_mutate_direction_out_of_range(capsys):
    rc, _, err = run(capsys, "mutate", "sl2", "9")
    assert rc == 2
    assert err == "error: direction 9 outside 1..1\n"


# ---------------------------------------------------------------------------
# explore


def test_explore_sl2_snapshot(capsys):
    rc, out, _ = run(capsys, "explore", "sl2")
    assert rc == 0
    assert out == (
        "clusters 2\nvariables 4\ntruncated no\n"
        "cluster 1: x c1 c2\ncluster 2: x' c1 c2\n"
        "variable x' = x^-1*c1*c2 + x^-1\n"
    )


def test_explore_a3_census(capsys):
    rc, out, _ = run(capsys, "explore", "a3")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "clusters 14"
    assert lines[1] == "variables 9"
    assert lines[2] == "truncated no"
    assert any(line.startswith("variable x24 = ") for line in lines)


def test_failed_parse_leaves_the_parser_usable(capsys):
    assert_usage_error(capsys, "explore", "a3", "--max-seeds", "x")
    rc, out, err = run(capsys, "explore", "a3")
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                          "explore-a3.out")
    with open(golden) as fh:
        assert (rc, out, err) == (0, fh.read(), "")


def test_explore_budget_truncates(capsys):
    rc, out, _ = run(capsys, "explore", "markov", "--max-seeds", "4")
    assert rc == 0
    assert "truncated yes" in out.splitlines()


@pytest.mark.parametrize("flags,clusters,truncated", [
    (["--max-seeds", "0"], 1, "yes"),
    (["--max-seeds", "1"], 1, "yes"),
    (["--max-seeds", "13"], 13, "yes"),
    (["--max-seeds", "14"], 14, "no"),
    (["--max-depth", "0"], 1, "yes"),
    (["--max-seeds", "-1"], None, None),
    (["--max-depth", "-1"], None, None),
])
def test_explore_budget_edges(capsys, flags, clusters, truncated):
    # the budget counts the first N distinct clusters in breadth-first
    # order, the start included; a3 has exactly 14; a negative budget is
    # a usage error
    rc, out, err = run(capsys, "explore", "a3", *flags)
    if clusters is None:
        assert (rc, out, err) == (2, "", f"error: {flags[0]} must not be negative\n")
        return
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == f"clusters {clusters}"
    assert lines[2] == f"truncated {truncated}"


# ---------------------------------------------------------------------------
# acyclic


def test_acyclic_yes(capsys):
    rc, out, _ = run(capsys, "acyclic", "a3")
    assert (rc, out) == (0, "acyclic\n")


def test_acyclic_reports_cycle(capsys):
    rc, out, _ = run(capsys, "acyclic", "markov")
    assert (rc, out) == (1, "cycle: 1 -> 2 -> 3\n")


def test_acyclic_search_fails_on_markov(capsys):
    rc, out, _ = run(capsys, "acyclic", "markov", "--search", "30")
    assert (rc, out) == (
        1, "no acyclic seed found: no acyclic seed within 30 seeds at depth <= 16\n")


def test_acyclic_search_zero_budget(capsys):
    rc, out, _ = run(capsys, "acyclic", "markov", "--search", "0")
    assert (rc, out) == (
        1, "no acyclic seed found: no acyclic seed within 0 seeds at depth <= 16\n")


def _long_quiver_file(tmp_path, n, close):
    """Seed file of the linear quiver 1 -> 2 -> ... -> n, closed into an
    n-cycle by n -> 1 when ``close`` is set."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1], rows[i + 1][i] = 1, -1
    if close:
        rows[n - 1][0], rows[0][n - 1] = 1, -1
    lines = [f"rank {n}", f"mutable {n}",
             "names " + " ".join(f"y{i}" for i in range(1, n + 1))]
    lines += ["row " + " ".join(map(str, row)) for row in rows]
    path = tmp_path / "long.seed"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_acyclic_long_chain_does_not_recurse(capsys, tmp_path):
    rc, out, err = run(capsys, "acyclic", _long_quiver_file(tmp_path, 1200, False))
    assert (rc, out, err) == (0, "acyclic\n", "")


def test_acyclic_long_cycle_is_reported(capsys, tmp_path):
    rc, out, err = run(capsys, "acyclic", _long_quiver_file(tmp_path, 1200, True))
    assert (rc, err) == (1, "")
    assert out == "cycle: " + " -> ".join(map(str, range(1, 1201))) + "\n"


def test_acyclic_search_succeeds_from_cyclic_chart(capsys, tmp_path):
    path = tmp_path / "c.seed"
    path.write_text(emit_seed_file(catalog("a3").seed.mutated(2)))
    rc, report, _ = run(capsys, "acyclic", str(path))
    assert rc == 1
    rc, out, _ = run(capsys, "acyclic", str(path), "--search", "10")
    assert rc == 0
    found = parse_seed_file(out, "<out>")
    assert is_acyclic(found.matrix)


# ---------------------------------------------------------------------------
# present


def test_present_sl2(capsys):
    rc, out, _ = run(capsys, "present", "sl2")
    assert rc == 0
    assert out == (
        "generators x c1 c2 x'\n"
        "frozen c1 c2\n"
        "relation x*x' - c1*c2 - 1\n"
    )


def test_present_a3_uses_diagonal_primes(capsys):
    rc, out, _ = run(capsys, "present", "a3")
    assert rc == 0
    assert out == (
        "generators x13 x14 x15 x24 x35 x46\n"
        "relation x13*x24 - x14 - 1\n"
        "relation x14*x35 - x13 - x15\n"
        "relation x15*x46 - x14 - 1\n"
    )


def test_present_affine(capsys):
    rc, out, _ = run(capsys, "present", "affine-a11")
    assert rc == 0
    assert out.splitlines()[0] == "generators x0 x1 x2 xm1"


def test_present_cyclic_chart_fails(capsys):
    rc, out, _ = run(capsys, "present", "markov")
    assert (rc, out) == (1, "not acyclic: cycle 1 -> 2 -> 3\n")


# ---------------------------------------------------------------------------
# wp / equal


def test_wp_markov_snapshot(capsys):
    rc, out, _ = run(capsys, "wp", "markov")
    assert rc == 0
    assert out == (
        "2*x1^-1*x2^-1 ; x1 ; x2\n"
        "-2*x1^-1*x3^-1 ; x1 ; x3\n"
        "2*x2^-1*x3^-1 ; x2 ; x3\n"
    )


def test_wp_a3_snapshot(capsys):
    rc, out, _ = run(capsys, "wp", "a3")
    assert rc == 0
    assert out == "x13^-1*x14^-1 ; x13 ; x14\nx14^-1*x15^-1 ; x14 ; x15\n"


def test_wp_file_seed_matches_catalog(capsys, tmp_path):
    path = tmp_path / "m.seed"
    path.write_text(emit_seed_file(catalog("markov").seed))
    _, from_key, _ = run(capsys, "wp", "markov")
    _, from_file, _ = run(capsys, "wp", str(path))
    assert from_key == from_file


def _write(capsys, tmp_path, name, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def test_equal_accepts_equivalent_expressions(capsys, tmp_path):
    a = _write(capsys, tmp_path, "a.form", "wp", "sl2")
    b = _write(capsys, tmp_path, "b.form", "catalog", "sl2", "--form", "regular")
    rc, out, _ = run(capsys, "equal", "sl2", a, b)
    assert (rc, out) == (0, "equal\n")


def test_equal_rejects_candidate_with_exact_difference(capsys, tmp_path):
    a = _write(capsys, tmp_path, "wp.form", "wp", "affine-a11")
    b = _write(capsys, tmp_path, "cand.form",
               "catalog", "affine-a11", "--form", "candidate")
    rc, out, _ = run(capsys, "equal", "affine-a11", a, b)
    assert rc == 1
    assert out == (
        "not equal\n"
        "difference (first - second):\n"
        "x0^-1*x1^-1 ; x0 ; x1\n"
    )


def test_equal_detects_scaling(capsys, tmp_path):
    a = _write(capsys, tmp_path, "wp.form", "wp", "affine-a11")
    doubled = tmp_path / "d.form"
    doubled.write_text("4*x0^-1*x1^-1 ; x0 ; x1\n")
    rc, out, _ = run(capsys, "equal", "affine-a11", a, str(doubled))
    assert rc == 1
    assert "difference (first - second):\n-2*x0^-1*x1^-1 ; x0 ; x1\n" in out


def test_equal_bad_form_file(capsys, tmp_path):
    a = _write(capsys, tmp_path, "wp.form", "wp", "sl2")
    bad = tmp_path / "bad.form"
    bad.write_text("pfft\n")
    rc, _, err = run(capsys, "equal", "sl2", a, str(bad))
    assert rc == 2
    assert "bad.form:1:" in err


@pytest.mark.parametrize("text", ["1/(x-x) ; x ; c1\n", "gen y = 1/(x - x)\n"],
                         ids=["term", "gen"])
def test_equal_zero_division_in_form_file(capsys, tmp_path, text):
    a = _write(capsys, tmp_path, "wp.form", "wp", "sl2")
    bad = tmp_path / "bad.form"
    bad.write_text(text)
    rc, out, err = run(capsys, "equal", "sl2", str(bad), a)
    assert (rc, out) == (2, "")
    assert err == f"error: {bad}:1: inverse of the zero rational function\n"


@pytest.mark.parametrize("text,reason", [
    ("gen g = x\n1/(g - x) ; x ; c1\n",
     "2: denominator x - g vanishes under substitution"),
    ("gen g = x - x\ng^-1 ; x ; c1\n",
     "2: substitution sends g to zero but it appears with exponent -1"),
], ids=["denominator", "negative-power"])
def test_equal_zero_division_after_gen_substitution(capsys, tmp_path, text, reason):
    a = _write(capsys, tmp_path, "wp.form", "wp", "sl2")
    bad = tmp_path / "bad.form"
    bad.write_text(text)
    rc, out, err = run(capsys, "equal", "sl2", str(bad), a)
    assert (rc, out) == (2, "")
    assert err == f"error: {bad}:{reason}\n"


def test_equal_zero_numerator_after_gen_substitution(capsys, tmp_path):
    zero = tmp_path / "zero.form"
    zero.write_text("gen g = x\n(g - x)/x ; x ; c1\n")
    one = tmp_path / "one.form"
    one.write_text("1 ; x ; c1\n")
    rc, out, err = run(capsys, "equal", "sl2", str(zero), str(one))
    assert (rc, err) == (1, "")
    assert out == "not equal\ndifference (first - second):\n-1 ; x ; c1\n"


@pytest.mark.parametrize("term", ["(" * 2000 + "x" + ")" * 2000, "-" * 3000 + "x"],
                         ids=["parentheses", "minus-signs"])
def test_equal_deeply_nested_term_is_a_usage_error(capsys, tmp_path, term):
    a = _write(capsys, tmp_path, "wp.form", "wp", "sl2")
    deep = tmp_path / "deep.form"
    deep.write_text(f"{term} ; x ; c1\n")
    rc, out, err = run(capsys, "equal", "sl2", str(deep), a)
    assert (rc, out) == (2, "")
    assert err == f"error: {deep}:1: col 1: expression nested too deeply\n"


# ---------------------------------------------------------------------------
# invariance


def test_invariance_sl2_depth_two(capsys):
    rc, out, _ = run(capsys, "invariance", "sl2", "--depth", "2")
    assert rc == 0
    assert out == "1 pass\n1,1 pass\nall 2 sequences pass\n"


def test_invariance_markov_depth_one(capsys):
    rc, out, _ = run(capsys, "invariance", "markov", "--depth", "1")
    assert rc == 0
    assert out == "1 pass\n2 pass\n3 pass\nall 3 sequences pass\n"


def test_invariance_rejects_zero_depth(capsys):
    rc, _, err = run(capsys, "invariance", "sl2", "--depth", "0")
    assert rc == 2
    assert "at least 1" in err


def test_invariance_markov_depth_six(capsys):
    # every exchange of the Markov quiver preserves the form (GSV), so all
    # 3 + 9 + ... + 729 sequences pass, listed by depth, then lexicographically
    rc, out, err = run(capsys, "invariance", "markov", "--depth", "6")
    sequences = [ks for d in range(1, 7)
                 for ks in itertools.product("123", repeat=d)]
    assert (rc, err, len(sequences)) == (0, "", 1092)
    assert out == "".join(f"{','.join(ks)} pass\n" for ks in sequences) + \
        "all 1092 sequences pass\n"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["explore", "a3"],
                                  ["invariance", "a3", "--depth", "3"]],
                         ids=["explore", "invariance"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "clusterwp", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()     # the reader goes away before the first line
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


# ---------------------------------------------------------------------------
# regularize


_A3_REGULARIZED = (
    "gen x24 = x13^-1*x14 + x13^-1\n"
    "gen x46 = x14*x15^-1 + x15^-1\n"
    "x14^-1 ; x13 ; x24\n"
    "1 ; x15 ; x46\n"
    "-x14^-1*x46 ; x15 ; x14\n"
)


def test_regularize_a3_by_pattern(capsys):
    rc, out, _ = run(capsys, "regularize", "a3", "--pattern", "1,3")
    assert (rc, out) == (0, _A3_REGULARIZED)


def test_regularize_a3_by_point(capsys, tmp_path):
    point = _write(capsys, tmp_path, "deep.point",
                   "catalog", "a3", "--point", "deep")
    rc, out, _ = run(capsys, "regularize", "a3", "--point", point)
    assert (rc, out) == (0, _A3_REGULARIZED)


@pytest.mark.parametrize("search", [[], ["--search", "5"]])
def test_regularize_rejects_an_unknown_name(capsys, tmp_path, search):
    # as tangent does: the catalog point names the entry's variables, and a
    # name no variable of the entry carries is a usage error
    point = _write(capsys, tmp_path, "p.point",
                   "catalog", "a3", "--point", "deep")
    rc, out, _ = run(capsys, "regularize", "a3", "--point", point, *search)
    assert rc == 0 and out.endswith(_A3_REGULARIZED)
    with open(point, "a") as handle:
        handle.write("zzz = 3\n")
    rc, out, err = run(capsys, "regularize", "a3", "--point", point, *search)
    assert (rc, out, err) == (2, "", f"error: {point}: unknown variable zzz\n")


def test_regularize_search_knows_the_names_its_walk_gives(capsys, tmp_path):
    seed = _write(capsys, tmp_path, "a3.seed", "catalog", "a3")
    point = tmp_path / "p.point"
    point.write_text("x13 = 0\nx14 = -1\nx15 = 0\nx13' = 0\n")
    rc, out, err = run(capsys, "regularize", seed, "--point", str(point))
    assert (rc, out, err) == (2, "", f"error: {point}: unknown variable x13'\n")
    rc, out, err = run(capsys, "regularize", seed, "--point", str(point), "--search", "5")
    assert (rc, err) == (0, "") and "\nform:\ngen x13' = " in out


def test_regularize_search_names_are_checked_to_its_depth(capsys, tmp_path):
    # the name check walks what the search may visit, none deeper than 3:
    # a huge budget stays cheap, and a name first met at depth 4 is unknown
    point = tmp_path / "p.point"
    point.write_text("x1 = 1\nx2 = 1\nx3 = 1\n")
    argv = ["regularize", "markov", "--point", str(point), "--search"]
    rc, out, err = run(capsys, *argv, "50")
    assert (rc, err) == (0, "") and out.startswith("rank 3\n")
    assert run(capsys, *argv, HUGE) == (rc, out, err)
    with open(point, "a") as handle:
        handle.write("x1'''''''' = 1\n")
    assert run(capsys, *argv, "50") == (
        2, "", f"error: {point}: unknown variable x1''''''''\n")


def test_regularize_single_index_uses_namer(capsys):
    rc, out, _ = run(capsys, "regularize", "a3", "--pattern", "2")
    assert rc == 0
    assert out.splitlines()[0] == "gen x35 = x13*x14^-1 + x14^-1*x15"


def test_regularize_sl2_matches_catalog_form(capsys):
    rc, out, _ = run(capsys, "regularize", "sl2", "--pattern", "1")
    _, catalog_form, _ = run(capsys, "catalog", "sl2", "--form", "regular")
    assert rc == 0
    assert out == catalog_form


def test_regularize_adjacent_vanishing_fails(capsys):
    rc, out, _ = run(capsys, "regularize", "markov", "--pattern", "1,2")
    assert rc == 1
    assert out == ("hypothesis violated: vanishing variables 1 and 2 "
                   "are exchange-adjacent (B_12 = 2)\n")


def test_regularize_search_exhausts_on_markov(capsys):
    rc, out, _ = run(capsys, "regularize", "markov",
                     "--pattern", "1,2,3", "--search", "40")
    assert (rc, out) == (1, "no regularizing seed found: "
                            "no regularizing seed within 40 seeds at depth <= 3\n")


def test_regularize_search_immediate_hit_emits_seed_and_form(capsys):
    rc, out, _ = run(capsys, "regularize", "a3",
                     "--pattern", "1,3", "--search", "5")
    assert rc == 0
    assert out.startswith("rank 3\n")
    assert "form:\n" in out
    assert out.endswith(_A3_REGULARIZED)


@pytest.mark.parametrize("pattern,names", [
    ("1,2", "x13 x35 x36"), ("2,3", "x25 x35 x15")])
def test_regularize_search_names_seeds_with_the_catalog_namer(capsys, pattern, names):
    rc, out, err = run(capsys, "regularize", "a3", "--pattern", pattern,
                       "--search", "50")
    assert (rc, err) == (0, "")
    seed_text, form_text = out.split("form:\n")
    found = parse_seed_file(seed_text)
    assert " ".join(found.names) == names
    form = parse_form_file(form_text, found)
    assert reduce_to_chart(form, found) == wp_form(found)


def test_regularize_pattern_validation(capsys):
    rc, _, err = run(capsys, "regularize", "a3", "--pattern", "1,9")
    assert rc == 2 and "9" in err
    rc, _, err = run(capsys, "regularize", "a3", "--pattern", "1;3")
    assert rc == 2 and "comma-separated" in err


@pytest.mark.parametrize("search", [[], ["--search", "5"]])
@pytest.mark.parametrize("seed,pattern,message", [
    ("a3", "1,9", "index 9 outside 1..3"),
    ("sl2", "2", "index 2 is frozen; frozen variables are invertible "
                 "and cannot vanish"),
])
def test_regularize_pattern_diagnostics(capsys, search, seed, pattern, message):
    rc, out, err = run(capsys, "regularize", seed, "--pattern", pattern, *search)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("search", [[], ["--search", "5"]])
def test_regularize_point_must_assign_the_start_chart(capsys, tmp_path, search):
    point = tmp_path / "p.point"
    point.write_text("x13 = 0\nx14 = 1\n")
    rc, out, err = run(capsys, "regularize", "a3", "--point", str(point), *search)
    assert (rc, out, err) == (2, "", "error: chart variable x15 is not assigned\n")


def test_regularize_search_point_must_assign_every_chart_variable(capsys, tmp_path):
    point = tmp_path / "p.point"
    point.write_text("x13 = 0\nx14 = 0\nx15 = 1\n")
    rc, out, err = run(capsys, "regularize", "a3", "--point", str(point),
                       "--search", "50")
    assert (rc, out, err) == (2, "", "error: chart variable x24 is not assigned\n")


@pytest.mark.parametrize("search", [[], ["--search", "5"]])
def test_regularize_rejects_non_skew_symmetric_vanishing_rows(capsys, tmp_path, search):
    seed = tmp_path / "b2.seed"
    seed.write_text("rank 2\nmutable 2\nnames a b\nrow 0 1\nrow -2 0\n")
    rc, out, err = run(capsys, "regularize", str(seed), "--pattern", "1", *search)
    assert (rc, out) == (2, "")
    assert err == ("error: rows meeting the vanishing set must be skew-symmetric "
                   "with their columns; B_12 = 1 but B_21 = -2\n")


def test_regularize_requires_pattern_or_point(capsys):
    assert_usage_error(capsys, "regularize", "a3")


# ---------------------------------------------------------------------------
# tangent


def test_tangent_sl2_deep(capsys, tmp_path):
    point = _write(capsys, tmp_path, "p.point",
                   "catalog", "sl2", "--point", "deep")
    rc, out, _ = run(capsys, "tangent", "sl2", "--point", point)
    assert (rc, out) == (0, "3\n")


def test_tangent_a3_deep(capsys, tmp_path):
    point = _write(capsys, tmp_path, "p.point",
                   "catalog", "a3", "--point", "deep")
    rc, out, _ = run(capsys, "tangent", "a3", "--point", point)
    assert (rc, out) == (0, "4\n")


def test_tangent_a3_generic(capsys, tmp_path):
    path = tmp_path / "g.point"
    path.write_text("x13 = 1\nx14 = 1\nx15 = 1\n"
                    "x24 = 2\nx35 = 2\nx46 = 2\n")
    rc, out, _ = run(capsys, "tangent", "a3", "--point", str(path))
    assert (rc, out) == (0, "3\n")


def test_tangent_needs_full_assignment(capsys, tmp_path):
    path = tmp_path / "p.point"
    path.write_text("x = 0\n")
    rc, _, err = run(capsys, "tangent", "sl2", "--point", str(path))
    assert rc == 2
    assert "unassigned generator" in err


def test_tangent_rejects_a_point_off_the_variety(capsys, tmp_path):
    path = tmp_path / "f.point"
    path.write_text("x = 1\nx' = 1\nc1 = 1\nc2 = 1\n")
    rc, out, err = run(capsys, "tangent", "sl2", "--point", str(path))
    assert (rc, out, err) == (
        2, "", "error: not a point of the algebra: x*x' - c1*c2 - 1 = -1\n")


def test_tangent_rejects_an_unknown_name(capsys, tmp_path):
    # the catalog point names all nine diagonals, six of them generators;
    # a name no variable of the entry carries is a usage error
    point = _write(capsys, tmp_path, "p.point",
                   "catalog", "a3", "--point", "deep")
    with open(point, "a") as handle:
        handle.write("zzz = 3\nyyy = 1\n")
    rc, out, err = run(capsys, "tangent", "a3", "--point", point)
    assert (rc, out, err) == (2, "", f"error: {point}: unknown variable zzz\n")


def test_tangent_cyclic_chart_fails(capsys, tmp_path):
    path = tmp_path / "p.point"
    path.write_text("x1 = 0\n")
    rc, out, _ = run(capsys, "tangent", "markov", "--point", str(path))
    assert rc == 1
    assert out.startswith("not acyclic")


# ---------------------------------------------------------------------------
# grade


def test_grade_markov(capsys):
    rc, out, _ = run(capsys, "grade", "markov")
    assert (rc, out) == (0, "-2\n")


def test_grade_affine(capsys):
    rc, out, _ = run(capsys, "grade", "affine-a11")
    assert (rc, out) == (0, "-2\n")


def test_grade_explicit_weights(capsys):
    rc, out, _ = run(capsys, "grade", "sl2", "--weights", "1,1,1")
    assert (rc, out) == (0, "-2\n")
    rc, out, _ = run(capsys, "grade", "a3", "--weights", "2,3,4")
    assert (rc, out) == (0, "-2\n")


def test_grade_is_minus_two_under_negative_and_zero_weights(capsys):
    rc, out, _ = run(capsys, "grade", "a3", "--weights", "5,-3,0")
    assert (rc, out) == (0, "-2\n")


def test_grade_weight_count_mismatch(capsys):
    rc, _, err = run(capsys, "grade", "a3", "--weights", "1,2")
    assert rc == 2
    assert "needs 3 entries" in err


def test_grade_zero_form(capsys, tmp_path):
    path = tmp_path / "z.seed"
    path.write_text("rank 1\nmutable 1\nnames a\nrow 0\n")
    rc, out, _ = run(capsys, "grade", str(path))
    assert rc == 1
    assert "no degree" in out


# ---------------------------------------------------------------------------
# budgets above sys.maxsize, on finite exchange graphs

HUGE = str(10 ** 20)
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv,golden", [
    (["explore", "a3", "--max-seeds", HUGE], "explore-a3.out"),
    (["acyclic", str(GOLDEN_DIR / "a3-cyclic.seed"), "--search", HUGE],
     "acyclic-a3-cyclic-search50.out"),
    (["regularize", "a3", "--pattern", "1,3", "--search", HUGE],
     "regularize-a3-13-search50.out"),
])
def test_a_budget_above_sys_maxsize_walks_the_whole_graph(capsys, argv, golden):
    assert run(capsys, *argv) == (0, (GOLDEN_DIR / golden).read_text(), "")


def test_deep_file_seed_budget_above_sys_maxsize(capsys, tmp_path):
    point = tmp_path / "p.point"
    point.write_text("x13 = 0\nx14 = -1\nx15 = 0\n")
    argv = ["deep", str(GOLDEN_DIR / "a3.seed"), "--point", str(point), "--max-seeds"]
    rc, out, err = run(capsys, *argv, "50")
    assert (rc, len(out.splitlines())) == (1, 15)
    assert run(capsys, *argv, HUGE) == (rc, out, err)


def test_explore_budget_above_sys_maxsize():
    seed = catalog("a3").seed
    whole, huge = explore(seed), explore(seed, max_seeds=10 ** 20)
    assert [s.names for s in huge.seeds] == [s.names for s in whole.seeds]
    assert huge.truncated is whole.truncated is False


# ---------------------------------------------------------------------------
# deep


def test_deep_affine_window_is_relative(capsys, tmp_path):
    point = _write(capsys, tmp_path, "p0.point",
                   "catalog", "affine-a11", "--point", "p0")
    rc, out, _ = run(capsys, "deep", "affine-a11", "--point", point)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "cluster 1 (x0 x1): has-determined-zero"
    assert lines[-1] == "verdict deep-relative"
    assert len(lines) == 8


def test_deep_a3_certifies(capsys, tmp_path):
    point = _write(capsys, tmp_path, "deep.point",
                   "catalog", "a3", "--point", "deep")
    rc, out, _ = run(capsys, "deep", "a3", "--point", point)
    assert rc == 0
    assert out.splitlines()[-1] == "verdict deep"


def test_deep_generic_point_is_not_deep(capsys, tmp_path):
    path = tmp_path / "g.point"
    path.write_text("x = 1\nc1 = 1\nc2 = 1\n")
    rc, out, _ = run(capsys, "deep", "sl2", "--point", str(path))
    assert rc == 1
    assert out.splitlines()[-1] == "verdict not-deep"


def test_deep_file_seed_needs_budget(capsys, tmp_path):
    seed = tmp_path / "m.seed"
    seed.write_text(emit_seed_file(catalog("markov").seed))
    point = tmp_path / "z.point"
    point.write_text("x1 = 0\nx2 = 0\nx3 = 0\n")
    rc, _, err = run(capsys, "deep", str(seed), "--point", str(point))
    assert rc == 2
    assert "--max-seeds is required" in err
    rc, out, _ = run(capsys, "deep", str(seed), "--point", str(point),
                     "--max-seeds", "10")
    assert rc == 0
    assert out.splitlines()[-1] == "verdict deep-relative"


def test_deep_file_seed_does_no_exchange_divisions(capsys, tmp_path, monkeypatch):
    # deep reads names and relations only, never an expansion
    seed = tmp_path / "m.seed"
    seed.write_text("rank 3\nmutable 3\nnames a b c\n"
                    "row 0 -2 2\nrow 2 0 -2\nrow -2 2 0\n")
    point = tmp_path / "p.point"
    point.write_text("a = 0\nb = 0\nc = 0\n")
    calls = []
    partner = seeds_module._exchange_partner
    monkeypatch.setattr(seeds_module, "_exchange_partner",
                        lambda *args: calls.append(args[1]) or partner(*args))
    rc, out, _ = run(capsys, "deep", str(seed), "--point", str(point),
                     "--max-seeds", "120")
    assert (rc, calls) == (1, [])
    assert len(out.splitlines()) == 121
    assert out.splitlines()[-1] == "verdict inconclusive"


@pytest.mark.parametrize("argv,flag", [
    (["acyclic", "markov", "--search", "-1"], "--search"),
    (["regularize", "a3", "--pattern", "1,3", "--search", "-2"], "--search"),
    (["deep", "markov", "--point", "p.point", "--max-seeds", "-1"], "--max-seeds"),
])
def test_negative_budgets_are_usage_errors(capsys, argv, flag):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {flag} must not be negative\n")


def test_deep_rejects_an_unknown_name(capsys, tmp_path):
    # a3's variables name no cluster of the Markov exploration
    path = tmp_path / "a3.point"
    path.write_text("x13 = 1\nx14 = 1\nx15 = 1\n")
    rc, out, err = run(capsys, "deep", "markov", "--point", str(path))
    assert (rc, out, err) == (2, "", f"error: {path}: unknown variable x13\n")


def test_deep_inconsistent_point_rejected(capsys, tmp_path):
    point = tmp_path / "bad.point"
    point.write_text("x0 = i\nx1 = 0\nx2 = 5\n")
    rc, _, err = run(capsys, "deep", "affine-a11", "--point", str(point))
    assert rc == 2
    assert err.startswith("error: invalid point:")


# ---------------------------------------------------------------------------
# shared plumbing


def test_missing_subcommand_is_usage_error(capsys):
    assert_usage_error(capsys)


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "error: argument command: invalid choice: 'bogus' "),
    (["explore", "a3", "--max-seeds", "x"],
     "error: argument --max-seeds: invalid int value: 'x'\n"),
    (["explore", "a3", "--bogus"], "error: unrecognized arguments: --bogus\n"),
    (["invariance", "a3"], "error: the following arguments are required: --depth\n"),
    (["regularize", "a3", "--point", "F", "--pattern", "1"],
     "error: argument --pattern: not allowed with argument --point\n"),
    # argparse reads -1,2,0 as an option; --weights=-1,2,0 is the way to write it
    (["grade", "a3", "--weights", "-1,2,0"],
     "error: argument --weights: expected one argument\n"),
], ids=["subcommand", "int", "option", "required", "exclusive", "dash-value"])
def test_bad_invocations_are_one_line_usage_errors(capsys, argv, message):
    assert assert_usage_error(capsys, *argv).startswith(message)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: clusterwp")


def test_walk_budget_defaults_have_one_owner():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    budget = (seeds_module.MAX_SEEDS, seeds_module.MAX_DEPTH)
    for fn in (seeds_module.explore, seeds_module.find_acyclic_seed):
        assert (default(fn, "max_seeds"), default(fn, "max_depth")) == budget, fn
    assert default(find_regularizing_seed, "max_seeds") == seeds_module.MAX_SEEDS
    args = _build_parser().parse_args(["explore", "a3"])
    assert (args.max_seeds, args.max_depth) == budget


NOT_UTF8 = b"\xff\xfe rank 1\n"


@pytest.mark.parametrize("argv", [
    ["wp", "F"],
    ["equal", "sl2", "F", "F"],
    ["tangent", "sl2", "--point", "F"],
    ["deep", "a3", "--point", "F"],
    ["regularize", "a3", "--point", "F"],
], ids=lambda argv: argv[0])
def test_non_utf8_input_file_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "bad.bin"
    path.write_bytes(NOT_UTF8)
    argv = [str(path) if a == "F" else a for a in argv]
    err = assert_usage_error(capsys, *argv)
    if argv[0] == "wp":
        assert err == (f"error: {str(path)!r} is not a catalog key "
                       "(sl2, a3, affine-a11, markov) and not a readable seed file\n")
    else:
        assert err == (f"error: cannot read {path}: not UTF-8 text "
                       "(invalid start byte at offset 0)\n")


def test_seed_argument_resolution_failure(capsys):
    rc, _, err = run(capsys, "wp", "no-such-thing")
    assert rc == 2
    assert "not a catalog key" in err


def test_seed_file_diagnostics_carry_location(capsys, tmp_path):
    path = tmp_path / "bad.seed"
    path.write_text("rank 2\nmutable 2\nnames a b\nrow 0 1\nrow 1 0\n")
    rc, _, err = run(capsys, "wp", str(path))
    assert rc == 2
    assert f"error: {path}:5:" in err


def test_point_file_diagnostics_carry_location(capsys, tmp_path):
    path = tmp_path / "bad.point"
    path.write_text("x := 1\n")
    rc, _, err = run(capsys, "tangent", "sl2", "--point", str(path))
    assert rc == 2
    assert f"{path}:1:" in err


@pytest.mark.parametrize("text, tail", [
    ("rank \u00b2\nmutable 1\nnames x\nrow 0\n", ":1: rank must be a single integer"),
    ("rank 2\nmutable 1\nnames x c\nrow 0 \u00b9\n", ":4: '\u00b9' is not an integer"),
], ids=["rank", "row"])
def test_seed_file_superscript_digit_is_diagnosed(capsys, tmp_path, text, tail):
    # str.isdigit accepts superscripts, which int() rejects
    path = tmp_path / "sup.seed"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "wp", str(path))
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith(tail + "\n")


# int() and Fraction() read Arabic-Indic digits (\u0661 one, \u0662 two,
# \u0663 three); every reader takes ASCII digits only


def test_seed_file_arabic_indic_rank_is_diagnosed(capsys, tmp_path):
    path = tmp_path / "a2.seed"
    path.write_text("rank \u0662\nmutable 2\nnames x y\nrow 0 1\nrow -1 0\n",
                    encoding="utf-8")
    rc, out, err = run(capsys, "explore", str(path))
    assert (rc, out, err) == (2, "", f"error: {path}:1: rank must be a single integer\n")


def test_form_file_arabic_indic_digits_are_diagnosed(capsys, tmp_path):
    odd = tmp_path / "odd.form"
    odd.write_text("x^\u0661 + \u0662 ; x ; c1\n", encoding="utf-8")
    wp = tmp_path / "wp.form"
    wp.write_text("x^-1*c1^-1 ; x ; c1\nx^-1*c2^-1 ; x ; c2\n")
    rc, out, err = run(capsys, "equal", "sl2", str(odd), str(wp))
    assert (rc, out) == (2, "")
    assert err == f"error: {odd}:1: col 3: unexpected character '\u0661'\n"


def test_point_file_arabic_indic_digits_are_diagnosed(capsys, tmp_path):
    path = tmp_path / "odd.point"
    path.write_text("x = 1\nc1 = \u0662/\u0663\n", encoding="utf-8")
    rc, out, err = run(capsys, "tangent", "sl2", "--point", str(path))
    assert (rc, out) == (2, "")
    assert err == (f"error: {path}:2: '\u0662/\u0663' is not a Gaussian "
                   "rational literal\n")


# ---------------------------------------------------------------------------
# fresh names: a seed file whose second name is the prime-toggle of its first

TWINS_SEED = "rank 2\nmutable 2\nnames x x'\nrow 0 1\nrow -1 0\n"


@pytest.fixture
def twins(tmp_path):
    path = tmp_path / "twins.seed"
    path.write_text(TWINS_SEED)
    return str(path)


def test_mutate_names_are_fresh(capsys, twins):
    rc, out, err = run(capsys, "mutate", twins, "1")
    assert (rc, err) == (0, "")
    assert "names x'' x'" in out.splitlines()
    assert parse_seed_file(out).names == ("x''", "x'")


def test_present_partners_are_fresh(capsys, twins):
    rc, out, err = run(capsys, "present", twins)
    assert (rc, err) == (0, "")
    assert out == ("generators x x' x'' x'''\n"
                   "relation x*x'' - x' - 1\n"
                   "relation x'*x''' - x - 1\n")


def test_tangent_over_fresh_partners(capsys, twins, tmp_path):
    point = tmp_path / "p.point"
    point.write_text("x = 1\nx' = 1\nx'' = 2\nx''' = 2\n")
    rc, out, err = run(capsys, "tangent", twins, "--point", str(point))
    assert (rc, out, err) == (0, "2\n", "")


def test_regularize_search_names_variables_as_explore_does(capsys, tmp_path):
    # on this A_3 chain a seed-scope name for the partner of x' would be
    # x'', which explore gives to the partner of x
    path = tmp_path / "t3.seed"
    path.write_text("rank 3\nmutable 3\nnames x x' y\n"
                    "row 0 1 0\nrow -1 0 1\nrow 0 -1 0\n")
    rc, out, err = run(capsys, "regularize", str(path), "--pattern", "1,2",
                       "--search", "50")
    assert (rc, err) == (0, "")
    names = [line.split(None, 1)[1] for line in out.splitlines()
             if line.startswith("names ")]
    assert names == ["x x''' y''"]
    rc, out, _ = run(capsys, "explore", str(path))
    assert rc == 0
    clusters = [line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("cluster ")]
    assert names[0] in clusters


def test_regularize_names_partners_as_present_does(capsys, tmp_path):
    # present and explore give x'' to the partner of x, so the partner of x'
    # is x''' even when x' vanishes alone
    path = tmp_path / "t3.seed"
    path.write_text("rank 3\nmutable 3\nnames x x' y\n"
                    "row 0 1 0\nrow -1 0 1\nrow 0 -1 0\n")
    rc, out, err = run(capsys, "regularize", str(path), "--pattern", "2")
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "gen x''' = x*x'^-1 + x'^-1*y"
    (tmp_path / "reg.form").write_text(out)
    rc, out, _ = run(capsys, "present", str(path))
    assert rc == 0 and "relation x'*x''' - x - y" in out.splitlines()
    rc, out, _ = run(capsys, "wp", str(path))
    (tmp_path / "wp.form").write_text(out)
    rc, out, err = run(capsys, "equal", str(path), str(tmp_path / "reg.form"),
                       str(tmp_path / "wp.form"))
    assert (rc, out, err) == (0, "equal\n", "")


A3_TWINS_CHAIN = "rank 3\nmutable 3\nnames x x' y\nrow 0 1 0\nrow -1 0 1\nrow 0 -1 0\n"
GOLDEN_A3 = (Path(__file__).parent / "golden" / "a3.seed").read_text()


@pytest.mark.parametrize("seed_text", [GOLDEN_A3, A3_TWINS_CHAIN],
                         ids=["golden-a3", "twins-chain"])
def test_regularize_search_gens_are_the_variables_explore_names(capsys, tmp_path,
                                                                seed_text):
    # a gen whose name explore also gives is explore's variable of that name:
    # its expansion in the found chart, with the chart variables replaced by
    # their expansions in the start chart, is explore's expansion
    path = tmp_path / "start.seed"
    path.write_text(seed_text)
    rc, out, err = run(capsys, "regularize", str(path), "--pattern", "1,2",
                       "--search", "50")
    assert (rc, err) == (0, "")
    found_text, form_text = out.split("form:\n")
    found = parse_seed_file(found_text)
    form = parse_form_file(form_text, found)
    start = parse_seed_file(seed_text)
    variables = explore(start).variables
    bindings = {nm: variables[nm].as_rational() for nm in found.names}
    shared = [nm for nm in form.table.names[len(found.names):] if nm in variables]
    assert shared
    for nm in shared:
        in_start = form.gens[nm].as_rational().substitute(bindings, start.chart())
        assert in_start == variables[nm].as_rational(), nm


def test_invariance_over_fresh_names(capsys, twins):
    rc, out, err = run(capsys, "invariance", twins, "--depth", "2")
    assert (rc, err) == (0, "")
    assert out.splitlines()[-1] == "all 6 sequences pass"


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzing

FUZZ_COMMANDS = (
    ["acyclic", "SEED", "--search", "5"],
    ["wp", "SEED"],
    ["grade", "SEED"],
    ["present", "SEED"],
    ["invariance", "SEED", "--depth", "1"],
    ["explore", "SEED", "--max-seeds", "10"],
    ["explore", "SEED", "--max-seeds", "99999999999999999999", "--max-depth", "2"],
    ["regularize", "SEED", "--pattern", "1"],
    ["regularize", "SEED", "--pattern", "1", "--search", "3"],
    ["mutate", "SEED", "1"],
)

# names with their primed twins, so that prime-toggling meets taken names
NAME_POOL = tuple(f"v{j}" + "'" * primes for j in range(2) for primes in range(3))


@st.composite
def small_seed_texts(draw):
    """Seed files with m <= 3, n <= 4, entries in -2..2 and distinct names
    from ``NAME_POOL``.  Half are B = S*D on the mutable block (S
    skew-symmetric, D positive diagonal); the rest are mostly not
    skew-symmetrizable and must exit 2."""
    n = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(NAME_POOL), min_size=n, max_size=n,
                          unique=True))
    m = draw(st.integers(1, min(n, 3)))
    rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        d = [draw(st.integers(1, 2)) for _ in range(m)]
        for i in range(m):
            rows[i][i] = 0
            for j in range(i + 1, m):
                s = draw(st.integers(-1, 1))
                rows[i][j], rows[j][i] = s * d[j], -s * d[i]
    lines = [f"rank {n}", f"mutable {m}",
             "names " + " ".join(names)]
    lines += ["row " + " ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(small_seed_texts())
@example("rank 2\nmutable 2\nnames v0 v1\nrow 0 1\nrow -2 0\n")
@example("rank 2\nmutable 2\nnames x x'\nrow 0 1\nrow -1 0\n")
def test_cli_exit_code_contract_fuzz(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.seed")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in FUZZ_COMMANDS:
            argv = [path if a == "SEED" else a for a in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 1, 2), (argv, text)
            if rc == 2:
                assert len(err.getvalue().splitlines()) == 1, (argv, text)
            if rc == 0 and command[0] == "mutate":
                parse_seed_file(out.getvalue())


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=80))
@example(NOT_UTF8)
@example(b"rank 1\nmutable 1\nnames \xc3\nrow 0\n")
def test_cli_exit_code_contract_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.seed")
        with open(path, "wb") as handle:
            handle.write(data)
        for command in FUZZ_COMMANDS:
            argv = [path if a == "SEED" else a for a in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc in (0, 1, 2), (argv, data)
            if rc == 2:
                assert len(err.getvalue().splitlines()) == 1, (argv, data)
