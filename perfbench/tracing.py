"""Outside-in tracing of clusterwp's layers.

`Tracer.install` replaces each public function or method listed in
`TARGETS` by a timing wrapper: a module-level function on every module of
the package that holds it by name, a method on its class (aliases such as
``__rmul__ = __mul__`` included).  `Tracer.restore` puts every original
back.  Wrappers record only while `Tracer.active` is set, which the round
sets around each timed task.

Each call's self time is its duration minus the time of the wrapped calls
it made, each of those counted from entry to exit of its wrapper.  Coarse
layers also keep an in-memory span (id, parent id, layer, start, end); hot
leaf layers, the Q(i) scalar operations and Laurent arithmetic, run 10^5
times or more per workload and are only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import defaultdict

MODULES = ("exact", "laurent", "exprs", "seeds", "forms", "regularity", "catalog", "cli")


def _terms(fn):
    return len(fn.num.terms) + len(fn.den.terms)


def _observe_mul(tracer, args, result):
    if hasattr(result, "terms"):
        tracer.extra["laurent.mul.terms_out"] += len(result.terms)
        tracer.peak("laurent.mul.max_terms", len(result.terms))


def _observe_substitute(tracer, args, result):
    tracer.peak("laurent.substitute.max_terms", _terms(result))


def _observe_pullback(tracer, args, result):
    tracer.peak("forms.pullback.max_terms",
                max((_terms(c) for c in result.coeffs.values()), default=0))


def _observe_mutated(tracer, args, result):
    if any(frame[1] == "seeds.explore" for frame in tracer.stack):
        tracer.extra["seeds.explore_mutations"] += 1


def _observe_explore(tracer, args, result):
    tracer.extra["seeds.explore_kept"] += len(result.seeds) - 1


def _observe_propagate(tracer, args, result):
    tracer.extra["regularity.propagate_point.assigned"] += \
        len(result[0].assignment) - len(args[0].assignment)


# layer, module, class (None for a module function), attributes, keep spans,
# observer of (tracer, args, result)
TARGETS = (
    ("exact.mul", "exact", "GaussianRational", ("__mul__",), False, None),
    ("exact.add", "exact", "GaussianRational", ("__add__", "__sub__", "__rsub__"), False, None),
    ("exact.inverse", "exact", "GaussianRational",
     ("inverse", "__truediv__", "__rtruediv__"), False, None),
    ("exact.rank", "exact", None, ("rank",), True, None),
    ("laurent.mul", "laurent", "LaurentPoly", ("__mul__",), False, _observe_mul),
    ("laurent.divide_exact", "laurent", "LaurentPoly", ("divide_exact",), False, None),
    ("laurent.canonical_key", "laurent", "LaurentPoly", ("canonical_key",), False, None),
    ("laurent.substitute", "laurent", "RationalFn", ("substitute",), True, _observe_substitute),
    ("laurent.rational_eq", "laurent", "RationalFn", ("__eq__",), True, None),
    ("laurent.partial", "laurent", "LaurentPoly", ("partial",), False, None),
    ("laurent.evaluate", "laurent", "LaurentPoly", ("evaluate",), False, None),
    ("laurent.to_expr", "laurent", "LaurentPoly", ("to_expr",), False, None),
    ("exprs.parse", "exprs", None, ("parse_expression",), True, None),
    ("seeds.mutated", "seeds", "Seed", ("mutated",), True, _observe_mutated),
    ("seeds.cluster_key", "seeds", "Seed", ("cluster_key",), False, None),
    ("seeds.explore", "seeds", None, ("explore",), True, _observe_explore),
    ("seeds.find_acyclic_seed", "seeds", None, ("find_acyclic_seed",), True, None),
    ("seeds.relations", "seeds", "Exploration", ("relations",), True, None),
    ("forms.pullback", "forms", None, ("pullback",), True, _observe_pullback),
    ("forms.reduce_to_chart", "forms", None, ("reduce_to_chart",), True, None),
    ("forms.check_invariance", "forms", None, ("check_invariance",), True, None),
    ("forms.forms_equal", "forms", None, ("forms_equal",), True, None),
    ("forms.wp_form", "forms", None, ("wp_form",), True, None),
    ("forms.parse_form_file", "forms", None, ("parse_form_file",), True, None),
    ("forms.emit_form_file", "forms", None, ("emit_form_file",), True, None),
    ("regularity.propagate_point", "regularity", None, ("propagate_point",), True,
     _observe_propagate),
    ("regularity.deep_witness", "regularity", None, ("deep_witness",), True, None),
    ("regularity.verify_point", "regularity", None, ("verify_point",), True, None),
    ("regularity.tangent_dimension", "regularity", None, ("tangent_dimension",), True, None),
    ("regularity.regularize_at", "regularity", None, ("regularize_at",), True, None),
    ("cli.main", "cli", None, ("main",), True, None),
)

# per-layer metrics beyond calls and self_s, with their units
EXTRAS = {
    "laurent.mul.terms_out": "count",
    "laurent.mul.max_terms": "count",
    "laurent.substitute.max_terms": "count",
    "forms.pullback.max_terms": "count",
    "regularity.propagate_point.assigned": "count",
}


def modules():
    """The package root and every traced module, imported."""
    return [importlib.import_module("clusterwp")] + \
        [importlib.import_module(f"clusterwp.{name}") for name in MODULES]


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []                # open calls: [child seconds, layer, span id]
        self.spans = []                # (id, parent id, layer, start, end)
        self.totals = defaultdict(lambda: [0, 0.0])   # layer -> [calls, self seconds]
        self.extra = defaultdict(int)
        self._ids = itertools.count()
        self._patches = []             # (owner, attribute, original, owned)

    def peak(self, name, value):
        if value > self.extra[name]:
            self.extra[name] = value

    def _wrap(self, fn, layer, keep_span, observe):
        tracer, stack, clock = self, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entry = clock()
            try:
                frame = [0.0, layer, next(tracer._ids)]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    total = tracer.totals[layer]
                    total[0] += 1
                    total[1] += end - start - frame[0]
                    if keep_span:
                        tracer.spans.append(
                            (frame[2], stack[-1][2] if stack else None, layer, start, end))
                if observe is not None:
                    observe(tracer, args, result)
                return result
            finally:
                if stack:
                    # the parent's child time covers this whole wrapper, its
                    # bookkeeping included: tracing cost is nobody's self time
                    stack[-1][0] += clock() - entry

        wrapper.perfbench_layer = layer
        return wrapper

    def install(self):
        mods = modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for layer, module, cls, attrs, keep_span, observe in TARGETS:
            for attr in attrs:
                if cls is None:
                    original = getattr(by_name[module], attr)
                    owners = [m for m in mods if vars(m).get(attr) is original]
                    names = [attr]
                else:
                    klass = getattr(by_name[module], cls)
                    original = getattr(klass, attr)
                    owners = [klass]
                    names = [nm for nm, v in vars(klass).items() if v is original]
                wrapper = self._wrap(original, layer, keep_span, observe)
                for owner in owners:
                    for nm in names:
                        self._patches.append((owner, nm, original, nm in vars(owner)))
                        setattr(owner, nm, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def metrics(self):
        """Every per-layer metric: name -> (value, unit)."""
        out = {}
        for layer, *_ in TARGETS:
            calls, self_s = self.totals.get(layer, (0, 0.0))
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.self_s"] = (self_s, "s")
        for name, unit in EXTRAS.items():
            out[name] = (self.extra.get(name, 0), unit)
        mutations = self.extra.get("seeds.explore_mutations", 0)
        kept = self.extra.get("seeds.explore_kept", 0)
        out["seeds.new_cluster_ratio"] = (kept / mutations if mutations else 0.0, "ratio")
        return out


def leftover_wrappers():
    """(owner, attribute) of every tracing wrapper still installed."""
    found = []
    for module in modules():
        for name, value in vars(module).items():
            if hasattr(value, "perfbench_layer"):
                found.append((module.__name__, name))
            if isinstance(value, type) and value.__module__.startswith("clusterwp"):
                found += [(f"{module.__name__}.{name}", attr)
                          for attr, v in vars(value).items()
                          if hasattr(v, "perfbench_layer")]
    return found
