"""One round of a workload, in this interpreter: set up, run every task
once, check every output, print one JSON line with the per-task times.

    python3 perfbench/bench_round.py --workload census --seed 1 --trace 0

`run.py` starts a fresh interpreter for each round, so that set-up time
includes the import, peak memory belongs to one round, and nothing cached
survives from one round to the next.  The inputs depend on the workload
and seed only, so every round of a run times the same tasks in the same
order.  The clusterwp under test is the one in ``src/`` beside this
directory; an installed copy is never used.

Before every task and after the last, the round times `reference`, a fixed
piece of Q(i) and polynomial arithmetic in the benchmark's own code that
never calls clusterwp.  Those slices record how fast the machine ran
around each task; `run.py` uses them to put every time on one scale.  With
--setup-only the round stops after set-up and times three slices, so that
set-up time can be sampled more often than the tasks are run.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from qi import qadd, qinv, qmul  # noqa: E402

_A, _B = (Fraction(3, 7), Fraction(-2, 5)), (Fraction(5, 11), Fraction(1, 3))
_P = {(0, 1, -2): 3, (1, 0, 2): 5, (-1, 2, 0): 7, (2, -2, 1): 2, (0, 0, 0): 1,
      (1, 1, -1): 4, (-2, 0, 1): 6, (0, -1, 2): 8, (2, 1, 0): 9}
_Q = {(1, -1, 0): 2, (0, 2, 1): 7, (-1, 0, -2): 5, (2, 0, 2): 3, (0, 0, 1): 1,
      (-2, 1, 0): 6, (1, 2, -1): 4, (0, -2, -1): 9, (1, 0, 1): 8}


def reference():
    """A fixed amount of pure-Python work (about 5 ms on the idle 2 GHz
    Xeon VM this benchmark was built on), the same in every round and on
    every commit: Q(i) arithmetic on Fraction pairs, then products of
    sparse polynomials held as dicts of exponent tuples.  clusterwp spends
    its time on both kinds of work, and the machine's drift slows the
    first less and the second more than it slows clusterwp.  The collector
    is off meanwhile, so that garbage the tasks left is not collected on
    its clock."""
    gc.disable()
    try:
        a = _A
        for k in range(50):
            a = qinv(qadd(qmul(a, _B), (Fraction(k % 7, 3), Fraction(1, 1 + k % 4))))
        for _ in range(2):
            p = _P
            for _ in range(3):
                out = {}
                for ka, va in p.items():
                    for kb, vb in _Q.items():
                        key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                        out[key] = out.get(key, 0) + va * vb
                p = out
        return a, len(p)
    finally:
        gc.enable()


def import_clusterwp():
    """The package from ``src/``; refuses any other copy."""
    sys.path.insert(0, str(SRC))
    import clusterwp
    import clusterwp.cli  # noqa: F401  (the CLI is not imported by the package root)
    if Path(clusterwp.__file__).resolve().parent != SRC / "clusterwp":
        raise ImportError(f"clusterwp imported from {clusterwp.__file__}, not {SRC}")
    return clusterwp


def timed_reference():
    """Seconds that one `reference` slice took."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def run_tasks(tasks, tracer=None):
    """Run each task once; only `run` is timed, and the tracer records only
    then.  Returns (per-task seconds, failure reasons, seconds of the
    `reference` slices: one before each task and one after the last)."""
    times, failures, slices = [], [], []
    clock = time.perf_counter
    for task in tasks:
        slices.append(timed_reference())
        error = None
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            result = task.run()
        except Exception as exc:  # a crash is a failed task, not a failed round
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = clock() - start
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                error = task.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        times.append(elapsed)
        if error:
            failures.append(f"{task.name}: {error}")
    slices.append(timed_reference())
    return times, failures, slices


def main(argv=None):
    import tracing
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cw = import_clusterwp()
    build_start = time.perf_counter()
    for key in cw.CATALOG_KEYS:
        cw.catalog(key)
    catalog_s = time.perf_counter() - build_start
    rng = random.Random(f"{args.workload}:{args.seed}")
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    tracer = None
    try:
        tasks = WORKLOADS[args.workload](cw, rng, tmp)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            times, failures, slices = [], [], [timed_reference() for _ in range(3)]
        else:
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
            times, failures, slices = run_tasks(tasks, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(tmp, ignore_errors=True)
    out = {
        "task_s": times,
        "reference_s": slices,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["layers"]["catalog.build_s"] = (catalog_s, "s")
        out["leftover_wrappers"] = tracing.leftover_wrappers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
