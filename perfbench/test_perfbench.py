"""Tests of the benchmark itself (not of clusterwp):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_round  # noqa: E402
import compare  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Task  # noqa: E402

cw = bench_round.import_clusterwp()


def _inputs(builder, seed, out):
    """Text of every input file a builder writes for one seed."""
    out.mkdir()
    builder(cw, random.Random(f"{builder.__name__}:{seed}"), str(out))
    return {p.name: p.read_text() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("builder", [workloads.census, workloads.invariance])
def test_inputs_repeat_per_seed_and_differ_across_seeds(builder, tmp_path):
    first = _inputs(builder, 7, tmp_path / "a")
    assert first and first == _inputs(builder, 7, tmp_path / "b")
    assert first != _inputs(builder, 8, tmp_path / "c")


def test_points_and_patterns_repeat_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        rows = gen.class_member(rng, gen.path_matrix(5), 9)
        names = gen.fresh_names(rng, 5)
        return (rows, gen.independent_set(rng, rows, 2), gen.adjacent_set(rng, rows),
                gen.presentation_point(rng, gen.acyclic_path(rng, 5), names,
                                       [f"{n}'" for n in names]))
    assert draw(1) == draw(1)
    assert draw(1) != draw(2)


def test_generated_seeds_stay_in_their_mutation_class():
    rng = random.Random(3)
    for _ in range(20):
        rows = gen.cyclic_member(rng, gen.path_matrix(5))
        assert gen.find_cycle(rows) is not None
        assert all(rows[i][j] == -rows[j][i] for i in range(5) for j in range(5))
    assert gen.find_cycle(gen.acyclic_path(rng, 8)) is None
    assert gen.is_path_orientation(gen.acyclic_path(rng, 8))
    assert not gen.is_path_orientation(gen.d4_matrix())
    assert gen.a_census(3) == (14, 9) and gen.a_census(6) == (429, 27)
    assert gen.sequence_count(3, 3) == 39


def test_explore_oracle_rejects_a_wrong_count_and_exit_code():
    names = ["x13", "x14", "x15"]
    result = workloads.cli(cw, ["explore", "a3"])
    assert workloads.check_explore(result, names, 14, 9, False) is None
    assert workloads.check_explore(result, names, 13, 9, False) is not None
    lied = (0, result[1].replace("clusters 14", "clusters 13", 1))
    assert workloads.check_explore(lied, names, 14, 9, False) is not None
    assert workloads.check_explore((1, result[1]), names, 14, 9, False) is not None


def test_invariance_oracle_rejects_a_wrong_exit_code_or_count():
    result = workloads.cli(cw, ["invariance", "sl2", "--depth", "2"])
    assert workloads.check_invariance(result, 1, 2) is None
    assert workloads.check_invariance((1, result[1]), 1, 2) is not None
    assert workloads.check_invariance(result, 1, 3) is not None


def test_equal_oracles_reject_an_unequal_pair_reported_equal(tmp_path):
    tasks = workloads.invariance(cw, random.Random("invariance:5"), str(tmp_path))
    perturbed = next(t for t in tasks if t.name == "equal-perturbed")
    rewrite = next(t for t in tasks if t.name == "equal-rewrite")
    assert perturbed.check(perturbed.run()) is None
    assert rewrite.check(rewrite.run()) is None
    assert perturbed.check((0, "equal\n")) is not None
    assert rewrite.check((1, "not equal\n")) is not None


def test_regularization_oracle_rejects_a_wrong_form():
    rows = gen.path_matrix(3)
    names = ["a1", "a2", "a3"]
    seed = cw.parse_seed_file(gen.seed_text(rows, names))
    form = cw.regularize_at(seed, cw.VanishingPattern(seed, frozenset({1, 3})))
    samples = [{n: gen.qi_value(random.Random(k)) for n in names} for k in range(2)]
    good = (form, cw.reduce_to_chart(form, seed))
    assert workloads.check_regularization(cw, good, rows, names, [0, 2], samples) is None
    doubled = (form, cw.reduce_to_chart(form, seed).scaled(2))
    assert workloads.check_regularization(cw, doubled, rows, names, [0, 2], samples) is not None


def test_a_wrong_answer_counts_as_a_failed_task(tmp_path):
    tasks = workloads.census(cw, random.Random("census:1"), str(tmp_path))
    small = [t for t in tasks if t.name == "explore-A3"][:3]
    liar = Task(small[0].name, lambda: (0, "clusters 13\n"), small[0].check)
    crash = Task("crash", lambda: 1 / 0, lambda r: None)
    times, failures, slices = bench_round.run_tasks(small + [liar, crash])
    assert len(times) == 5 and len(slices) == 6
    assert len(failures) == 2 and "raised ZeroDivisionError" in failures[1]


def _attributes():
    """id of every attribute of every traced module and its classes."""
    snap = {}
    for module in tracing.modules():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("clusterwp"):
                for attr, v in vars(value).items():
                    snap[(module.__name__, name, attr)] = id(v)
    return snap


def test_tracer_records_and_leaves_no_wrapper_behind(tmp_path):
    before = _attributes()
    tasks = workloads.census(cw, random.Random("census:2"), str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers()
        assert cw.explore.perfbench_layer == "seeds.explore"
        _, failures, _ = bench_round.run_tasks([t for t in tasks if t.name == "explore-A3"][:2],
                                            tracer)
    finally:
        tracer.restore()
    assert failures == []
    assert tracing.leftover_wrappers() == []
    assert _attributes() == before
    metrics = tracer.metrics()
    assert metrics["seeds.explore.calls"][0] == 2 and metrics["cli.main.calls"][0] == 2
    assert metrics["seeds.mutated.calls"][0] > 0 and metrics["exact.mul.calls"][0] > 0
    assert 0 < metrics["seeds.new_cluster_ratio"][0] < 1
    assert tracer.spans and all(end >= start for *_, start, end in tracer.spans)


def test_traced_counts_repeat_across_processes():
    first, second = (run.run_round("points", 11, True, 120) for _ in range(2))
    assert first["failures"] == [] and first["leftover_wrappers"] == []
    counts = {n: v for n, (v, unit) in first["layers"].items() if unit != "s"}
    assert counts["regularity.propagate_point.calls"] > 0
    assert counts == {n: v for n, (v, unit) in second["layers"].items() if unit != "s"}


def test_tail_is_the_highest_percentile_with_ten_tasks_above():
    assert run.tail([float(k) for k in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_are_scaled_by_the_reference_slices_around_them():
    # a machine at half speed, one slice of it hit by an interrupt
    slow = run.REFERENCE_S * 2
    round_ = {"task_s": [2.0] * 6, "reference_s": [slow, slow, slow, slow * 5, slow, slow, slow]}
    assert run.scaled_tasks(round_) == pytest.approx([1.0] * 6)
    assert run.scale(round_) == pytest.approx(0.5)
    noisier = dict(round_, task_s=[2.0, 3.0, 2.0, 2.0, 2.5, 2.0])
    assert run.task_times([noisier, round_]) == pytest.approx([1.0] * 6)
    # set-up is scaled by the three slices after it, taken from set-up-only
    # rounds too; setup_s is the median over both kinds of round
    setup = {"setup_s": 0.4, "reference_s": [slow, slow * 9, slow]}
    assert run.scaled_setup(setup) == pytest.approx(0.2)
    rounds = [dict(round_, setup_s=0.2, peak_rss_mb=1.0)]
    metrics, _ = run.end_to_end(rounds, [setup, setup])
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)


def test_compare_verdicts():
    before = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    assert compare.verdict(before, {s: v * 1.5 for s, v in before.items()}, 0.25) == "worse"
    assert compare.verdict(before, {s: v * 0.5 for s, v in before.items()}, 0.25) == "better"
    assert compare.verdict(before, dict(before), 0.25) == "unchanged"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, {s: v * 1.01 for s, v in noisy.items()}, 0.25) == "unresolved"
