"""Run every workload of BENCHMARK.json over several seeds, untraced, and
append every result to a file.

    python3 perfbench/sweep.py --out before.jsonl --seeds 1-10

Each line of the output is one run: {"workload", "seed", "result"}, where
"result" is run.py's final JSON line.  Seeds run in the outer loop, so an
interrupted sweep still covers every workload.  Every run lasts
BENCHMARK.json's run_seconds, so two sweeps always compare runs of the
same length.  Feed two such files to compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    """'1-10' or '1,4,7' -> list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON-lines file to append to")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)

    status = 0
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}: "
                      f"{proc.stderr.strip()}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "result": result}) + "\n")
            shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}; "
                  f"{shown}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
