"""Compare two sets of benchmark results, or report the spread of one.

    python3 perfbench/compare.py before.jsonl after.jsonl
    python3 perfbench/compare.py runs.jsonl

Inputs are sweep.py output files (untraced runs).  For each workload and
end-to-end metric of BENCHMARK.json, one row shows each side's median and
quartiles (`statistics.quantiles(values, n=4)`) and their spread, the
distance between the quartiles as a share of the median.

With two files the last column is a verdict under the metric's bound:
  worse       the after median is worse than the before median by more
              than the bound;
  better      the after side wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the before side's quartile
              distance, or every after run beats every before run;
  unresolved  neither, and either side's spread is wider than the bound;
  unchanged   otherwise.
With one file the last column says whether the spread is within a third of
the bound, which is the steadiness target for the benchmark itself.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path):
    """{(workload, metric): {seed: value}} of the runs in a sweep file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = metric["value"]
    return out


def summary(values):
    """(median, q1, q3, spread) of a list of values."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(before, after, bound, lower_is_better=True):
    """better / worse / unresolved / unchanged for {seed: value} maps."""
    sign = 1 if lower_is_better else -1
    b_med, b_q1, b_q3, b_spread = summary(list(before.values()))
    a_med, _, _, a_spread = summary(list(after.values()))
    if sign * (a_med - b_med) > bound * b_med:
        return "worse"
    seeds = sorted(set(before) & set(after))
    wins = sum(sign * (after[s] - before[s]) < 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and sign * (b_med - a_med) > b_q3 - b_q1:
        return "better"
    if all(sign * (a - b) < 0 for a in after.values() for b in before.values()):
        return "better"
    if max(a_spread, b_spread) > bound:
        return "unresolved"
    return "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sides = [load(path) for path in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':11s} {'metric':12s} {'median [q1, q3] (spread)':>38s}"
    print(header + (f" {'after median [q1, q3] (spread)':>38s} {'change':>8s} verdict"
                    if len(sides) == 2 else f" {'bound':>6s} steady"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for side in sides:
                values = side.get((workload, name))
                if not values:
                    cols.append(None)
                    continue
                med, q1, q3, spread = summary(list(values.values()))
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.1%}, n={len(values)})")
            if None in cols:
                continue
            row = f"{workload:11s} {name:12s} {cols[0]:>38s}"
            if len(sides) == 1:
                spread = summary(list(sides[0][(workload, name)].values()))[3]
                row += f" {bound:6.2f} {'yes' if spread < bound / 3 else 'NO'}"
            else:
                before, after = (s[(workload, name)] for s in sides)
                change = summary(list(after.values()))[0] / summary(list(before.values()))[0] - 1
                row += f" {cols[1]:>38s} {change:+8.1%} " \
                       f"{verdict(before, after, bound, metric['better'] == 'lower')}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
