"""Per-layer tracing of superinv, installed from outside the package.

Run as ``python3 perfbench/tracer.py <superinv cli arguments>`` with
``src`` on ``PYTHONPATH``.  It wraps the public module-level functions of
every superinv module, plus the operator methods named in ``METHODS``,
runs ``superinv.cli.main`` with the given arguments, and writes one line
``MARKER + json`` to stderr holding additive raw figures for that process:
``<layer>.<function>.calls``, ``.incl_s``, ``.self_s`` and the extra
per-call sums of ``EXTRAS``.  stdout is the CLI's own, byte for byte.

A span's self time is its duration minus the time spent in wrapped
callees, where a callee's bookkeeping (``EXTRAS``) also counts as callee
time, so the tracer's own work is not charged to the caller.  The
``scalars`` layer is counted only: its functions run millions of times
per job and a timed span around each would swamp the figures.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

MARKER = "PERFBENCH-TRACE "

LAYERS = (
    "scalars",
    "signs",
    "spaces",
    "tensors",
    "algebras",
    "tensoralg",
    "enveloping",
    "schurweyl",
    "brauer",
    "cli",
)

COUNT_ONLY_LAYERS = ("scalars",)

# Methods traced besides the module-level functions: (layer, class,
# attribute) -> metric name.  Attributes sharing a name share one record.
METHODS = {
    ("enveloping", "PBWElement", "__add__"): "PBWElement.add",
    ("schurweyl", "UValuedTensor", "__mul__"): "UValuedTensor.mul",
    ("scalars", "Scalar", "__mul__"): "Scalar.mul",
    ("scalars", "Scalar", "__rmul__"): "Scalar.mul",
    ("scalars", "Scalar", "__add__"): "Scalar.add",
    ("scalars", "Scalar", "__radd__"): "Scalar.add",
    ("scalars", "Scalar", "__sub__"): "Scalar.add",
    ("scalars", "Scalar", "__rsub__"): "Scalar.add",
    ("scalars", "Scalar", "__neg__"): "Scalar.add",
}


def _pbw_add(tracer, rec, args, result):
    a, b = args[0], args[1]
    rec["terms_in"] += len(a.terms) + len(b.terms)


def _u_multiply(tracer, rec, args, result):
    a, b = args[0], args[1]
    rec["pairs"] += len(a.terms) * len(b.terms)
    rec["terms_out"] += len(result.terms)


def _pbw_normalize(tracer, rec, args, result):
    alg, word = args[0], args[1]
    rec["terms_out"] += len(result.terms)
    key = (alg.family, alg.m, alg.n, tuple(word))
    if key not in tracer.pbw_words:
        tracer.pbw_words.add(key)
        rec["distinct_words"] += 1


def _eta_prime(tracer, rec, args, result):
    rec["terms_in"] += len(args[0].terms)


def _compose(tracer, rec, args, result):
    a, b = args[0], args[1]
    rec["pair_bound"] += len(a.entries) * len(b.entries)
    rec["terms_out"] += len(result.entries)
    # key pairs whose column word of a equals the row word of b: the pairs
    # that produce a term, out of the pair_bound visited
    rows = Counter(tuple(r for r, _ in kb) for kb in b.entries)
    rec["pair_hits"] += sum(rows[tuple(c for _, c in ka)] for ka in a.entries)


def _project_tensor(tracer, rec, args, result):
    rec["terms_out"] += len(result.terms)


def _count_by_type(tracer, rec, args, result):
    rec["diagrams"] += result["total"]


# metric prefix -> (function adding one call's sums, the sums it keeps)
EXTRAS = {
    "enveloping.PBWElement.add": (_pbw_add, ("terms_in",)),
    "enveloping.u_multiply": (_u_multiply, ("pairs", "terms_out")),
    "enveloping.pbw_normalize": (_pbw_normalize, ("terms_out", "distinct_words")),
    "enveloping.eta_prime": (_eta_prime, ("terms_in",)),
    "tensors.compose": (_compose, ("pair_bound", "terms_out", "pair_hits")),
    "tensoralg.project_tensor": (_project_tensor, ("terms_out",)),
    "brauer.count_by_type": (_count_by_type, ("diagrams",)),
}


class Tracer:
    """Wraps and rebinds the traced callables; collects their figures."""

    def __init__(self):
        self.records = {}  # metric prefix -> {"calls": .., "incl_s": .., ...}
        self.counters = {}  # metric prefix -> itertools.count, count-only
        self.pbw_words = set()  # distinct (algebra, word) given to pbw_normalize
        self._stack = []  # callee time of each open span

    def _span(self, name, fn):
        extra, sums = EXTRAS.get(name, (None, ()))
        rec = self.records.setdefault(
            name, Counter(dict.fromkeys(sums, 0), calls=0, incl_s=0.0, self_s=0.0)
        )
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                callee = stack.pop()
                rec["calls"] += 1
                rec["incl_s"] += t1 - t0
                rec["self_s"] += t1 - t0 - callee
                if stack:
                    stack[-1] += t1 - t0
            if extra is not None:
                extra(self, rec, args, result)
                if stack:
                    stack[-1] += perf_counter() - t1
            return result

        return wrapper

    def _count(self, name, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced callable and rebind every reference to it."""
        modules = {layer: importlib.import_module("superinv." + layer) for layer in LAYERS}
        targets = {}  # id(original) -> (original, metric prefix, layer)
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    # a span around a generator would close before its work
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[id(obj)] = (obj, "%s.%s" % (layer, name), layer)
        for (layer, cls, attr), name in METHODS.items():
            obj = vars(getattr(modules[layer], cls))[attr]
            targets[id(obj)] = (obj, "%s.%s" % (layer, name), layer)

        wrappers = {}
        for key, (obj, name, layer) in targets.items():
            make = self._count if layer in COUNT_ONLY_LAYERS else self._span
            wrappers[key] = make(name, obj)

        # superinv binds by name (``from .tensors import compose``), so every
        # module global, class attribute and module-level dict value that
        # holds an original is replaced, not just the defining one
        for modname, mod in list(sys.modules.items()):
            if modname != "superinv" and not modname.startswith("superinv."):
                continue
            for name, val in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if id(val) in wrappers:
                    setattr(mod, name, wrappers[id(val)])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if id(v) in wrappers:
                            val[k] = wrappers[id(v)]
                elif isinstance(val, type) and val.__module__.startswith("superinv"):
                    for attr, v in list(vars(val).items()):
                        if id(v) in wrappers:
                            setattr(val, attr, wrappers[id(v)])
        return modules

    def figures(self) -> dict:
        """Flat additive figures; every traced name appears, called or not."""
        out = {}
        for name, rec in self.records.items():
            for stat, value in rec.items():
                out["%s.%s" % (name, stat)] = value
        for name, tick in self.counters.items():
            out["%s.calls" % name] = next(tick)
        return out


def main(argv) -> int:
    tracer = Tracer()
    modules = tracer.install()
    try:
        code = modules["cli"].main(argv)
    finally:
        sys.stderr.write("\n%s%s\n" % (MARKER, json.dumps(tracer.figures())))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
