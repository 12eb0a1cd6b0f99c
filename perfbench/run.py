"""Benchmark entry point: run one workload for about --seconds seconds and
print its metrics, the last line being one JSON object.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

The run is a sequence of rounds (see bench_round.py), each in a fresh
interpreter started after the previous one ended, all timing the same
tasks on the same seeded inputs.  Rounds start while the next one is
expected to end within --seconds, and at least three run.

Times are reported in reference seconds.  The speed of the shared machine
this benchmark was built on drifts by 25-75% over tens of seconds, for
identical work and with CPU time equal to wall time, so raw seconds of runs
made minutes apart cannot be compared.  Each round therefore times a fixed
reference computation (`bench_round.reference`, Fraction and dict-polynomial
arithmetic independent of clusterwp) before every task and after the last.  A task's
time is scaled by REFERENCE_S over the median of the six slices nearest to
it, three before and three after (a median, so that one slice caught by an
interrupt moves nothing): a reference second is the time in which the
reference computation runs 1 / REFERENCE_S times.  Set-up time is scaled by
the median of the three slices that follow it.

Each task's time is then its least over rounds, since noise on a shared
machine only ever adds time, and wall_s, task_p50_s and task_tail_s are
taken over those.  peak_rss_mb is the median over rounds.  Set-up is short
beside the tasks, so after the task rounds set-up-only rounds run until
MIN_SETUPS set-ups were timed, and setup_s is the median of all of them.
The raw wall time and the machine's speed are printed beside them.

With --trace 1 untraced and traced rounds alternate, at least two of each.
The per-layer counts come from the first traced round and must repeat in
every other; self times, scaled by each round's median slice, are medians
over traced rounds.  The tracing overhead, the median traced wall_s minus
the median untraced wall_s, is reported beside them as trace.overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3
MIN_SETUPS = 5      # set-up times sampled per untraced run, task rounds included
LIMIT_S = 170       # every run must end well within 180 s
REFERENCE_S = 0.005  # seconds of one reference slice on the idle build machine


class RoundFailed(RuntimeError):
    pass


def run_round(workload, seed, traced, timeout, setup_only=False):
    """One round in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, str(HERE / "bench_round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"a round did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RoundFailed(f"a round exited {proc.returncode}: {last}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seed, seconds, traced):
    """(task rounds, set-up-only rounds).  Task rounds run until the next
    one, and the set-up-only rounds still owed, would overrun --seconds (at
    least MIN_ROUNDS, and two traced and two untraced in a traced run; never
    past LIMIT_S); in a traced run every second round is traced.  An
    untraced run then adds set-up-only rounds until MIN_SETUPS set-ups were
    timed."""
    start = time.perf_counter()
    least = 4 if traced else MIN_ROUNDS
    rounds, setups = [], []
    while True:
        elapsed = time.perf_counter() - start
        if rounds:
            mean = elapsed / len(rounds)
            if elapsed + 1.2 * mean > LIMIT_S:
                break
            owed = 0 if traced else max(MIN_SETUPS - len(rounds) - 1, 0)
            setup = statistics.median(r["setup_s"] for r in rounds)
            if len(rounds) >= least and elapsed + mean + owed * setup > seconds:
                break
        rounds.append(run_round(workload, seed, traced and len(rounds) % 2 == 1,
                                LIMIT_S - elapsed))
    while not traced and len(rounds) + len(setups) < MIN_SETUPS:
        elapsed = time.perf_counter() - start
        setups.append(run_round(workload, seed, False, LIMIT_S - elapsed, setup_only=True))
    return rounds, setups


def tail(times):
    """(value, percentile) of the highest percentile with at least ten
    tasks above it; the slowest task when there are fewer than eleven."""
    ordered = sorted(times)
    at = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[at], 100.0 * (at + 1) / len(ordered)


def scale(round_):
    """REFERENCE_S over the round's median reference slice: the factor
    that turns the round's seconds into reference seconds."""
    return REFERENCE_S / statistics.median(round_["reference_s"])


def scaled_setup(round_):
    """The round's set-up time in reference seconds, scaled by the median
    of the three reference slices that follow set-up."""
    return round_["setup_s"] * REFERENCE_S / statistics.median(round_["reference_s"][:3])


def scaled_tasks(round_):
    """The round's task times in reference seconds, each scaled by the
    median of the six reference slices nearest to it (slice k runs just
    before task k)."""
    ref = round_["reference_s"]
    return [t * REFERENCE_S / statistics.median(ref[max(k - 2, 0):k + 4])
            for k, t in enumerate(round_["task_s"])]


def task_times(rounds):
    """Each task's least scaled time over the rounds."""
    return [min(ts) for ts in zip(*map(scaled_tasks, rounds))]


def end_to_end(rounds, setups):
    """The end-to-end metrics of BENCHMARK.json, and the tail percentile;
    set-up time is the median over task and set-up-only rounds."""
    tasks = task_times(rounds)
    tail_s, percentile = tail(tasks)
    values = {
        "wall_s": (sum(tasks), "s"),
        "task_p50_s": (statistics.median(tasks), "s"),
        "task_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(map(scaled_setup, rounds + setups)), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, percentile


def per_layer(traced):
    """Per-layer metrics of traced rounds, or raise when their counts
    differ (they must repeat exactly on identical inputs)."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, (value, unit) in first.items():
            if unit != "s" and other["layers"][name][0] != value:
                raise RoundFailed(f"{name} differs between traced rounds")
    out = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(r["layers"][name][0] * scale(r) for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def heaviest_modules(metrics):
    """Modules ordered by summed self time."""
    totals = {}
    for name, metric in metrics.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + metric["value"]
    return sorted(totals.items(), key=lambda kv: -kv[1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clusterwp" / "__init__.py").is_file():
        print(f"error: no clusterwp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
        untraced, traced = rounds[::2], rounds[1::2]
        if args.trace:
            leftovers = [w for r in traced for w in r["leftover_wrappers"]]
            if leftovers:
                raise RoundFailed(f"tracing wrappers left installed: {leftovers[:3]}")
            metrics = per_layer(traced)
    except RoundFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["task_s"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    for reason in failures[:10]:
        print(f"FAILED {reason}")
    tasks = len(rounds[0]["task_s"])
    speed = statistics.median(1 / scale(r) for r in rounds)
    raw_wall = statistics.median(sum(r["task_s"]) for r in rounds)
    print(f"{args.workload}: measured wall {raw_wall:.3f} s per round; one reference "
          f"second took {speed:.3f} s")
    if args.trace:
        plain, wrapped = (statistics.median(sum(scaled_tasks(r)) for r in side)
                          for side in (untraced, traced))
        metrics["trace.overhead_s"] = {"value": wrapped - plain, "unit": "s"}
        print(f"{args.workload}: {len(traced)} traced and {len(untraced)} untraced rounds of "
              f"{tasks} tasks; tracing overhead {wrapped - plain:.3f} s (traced wall_s "
              f"{wrapped:.3f} s, untraced {plain:.3f} s)")
        ranking = ", ".join(f"{m} {s:.3f} s" for m, s in heaviest_modules(metrics))
        print(f"{args.workload}: self time by module: {ranking}")
    else:
        metrics, percentile = end_to_end(rounds, setups)
        print(f"{args.workload}: {len(rounds)} rounds of {tasks} tasks and "
              f"{len(setups)} set-up-only rounds; task_tail_s is the p{percentile:.1f} task")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} tasks)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
