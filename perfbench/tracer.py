"""Outside-in tracing of symcart's layers, for the benchmark worker.

The tracer replaces public functions of ``symcart.*`` with wrappers that
record one span per call: name, start, end and parent.  Each function is
rebound in *every* symcart module that holds it, so a name imported with
``from .homotopy import pi`` is traced as well as ``homotopy.pi``.
Spans stay in memory (four flat arrays) until ``summary`` reduces them
to per-function calls and self time (a span's duration minus the time
its child spans cover) and per-layer self time inside benchmark ops.
The layers are the chain rootsys -> catalog -> homotopy -> recognize ->
cli, plus geom; ``abelian`` is the group arithmetic that homotopy and
recognize both call, so its self time is charged to the calling layer
(it keeps its own per-function metrics).

A name that a later version of the program no longer has is skipped and
reported in ``absent``; so is the cache counter of a function that has
lost its ``lru_cache``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

OP = "bench.op"

# layer (= symcart module) -> public functions to trace: the ones the
# per-layer metrics name, plus the entry points through which another
# layer calls in (a call inside one layer needs no span of its own)
TRACED = {
    "rootsys": ("positive_roots", "kp_enumerated"),
    "catalog": ("instantiate", "enumerate_catalog", "product_kp"),
    "homotopy": ("load_records", "pi", "profile", "consistency_violations"),
    "abelian": ("compatible", "direct_sum"),
    "recognize": ("distinguish_profiles", "distinguish", "corollary1_scan",
                  "decompose"),
    "geom": ("theorem_a_gate", "theorem_b_check"),
    "cli": ("main", "parse_space"),
}

# modules whose self time counts towards the layer that called them
CHARGED_TO_CALLER = ("abelian",)

CACHED = ("rootsys.positive_roots", "catalog.instantiate", "homotopy.pi",
          "homotopy.load_records")


def _scan_pairs(report):
    return (report.distinguishable_pairs + len(report.blind_pairs)
            + len(report.violations) + len(report.undetermined))


# traced name -> (counter, size of a result); counted on every call, or
# only on cache misses for the functions in CACHED
_RESULT_COUNTERS = {
    "rootsys.positive_roots": ("rootsys.roots_materialised", len),
    "homotopy.load_records": ("homotopy.records_loaded", len),
    "catalog.enumerate_catalog": ("catalog.spaces_enumerated", len),
    "recognize.corollary1_scan": ("recognize.scan.pairs", _scan_pairs),
    "recognize.decompose": ("recognize.decompose.results", len),
}


class Tracer:
    def __init__(self):
        self.names = []                  # name id -> name
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counters = Counter()
        self.originals = {}              # traced name -> unwrapped function
        self.absent = []

    def wrap(self, name, fn):
        """A callable that runs ``fn`` inside a span called ``name``."""
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _counting(self, name, fn):
        counter, size = _RESULT_COUNTERS[name]
        info = getattr(fn, "cache_info", None) if name in CACHED else None
        counters = self.counters

        def call(*args, **kwargs):
            before = info().misses if info else 0
            result = fn(*args, **kwargs)
            if info is None or info().misses > before:
                counters[counter] += size(result)
            return result
        return call

    def install(self):
        """Wrap every traced function in every loaded symcart module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "symcart" or n.startswith("symcart."))]
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"symcart.{layer}")
            for fname in functions:
                name = f"{layer}.{fname}"
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                self.originals[name] = fn
                inner = self._counting(name, fn) if name in _RESULT_COUNTERS else fn
                traced = self.wrap(name, inner)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per-function calls/self/total time, per-layer self time inside
        ops, counters and cache counters of everything recorded so far."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        n = len(starts)
        child = [0.0] * n
        layer_of = [self._layer(name) for name in self.names]
        charged = [0] * n                # name id of the layer owner
        in_op = bytearray(n)
        in_decompose = bytearray(n)
        op_id = self._id(OP)
        decompose_id = self._id("recognize.decompose")
        profile_id = self._id("homotopy.profile")
        for i in range(n):
            p = parents[i]
            charged[i] = names[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                if layer_of[names[i]] in CHARGED_TO_CALLER:
                    charged[i] = charged[p]
                in_op[i] = in_op[p]
                in_decompose[i] = in_decompose[p] or names[p] == decompose_id
            else:
                in_op[i] = names[i] == op_id
        funcs = {}
        layers = Counter()
        exact_checks = 0
        for i in range(n):
            name = self.names[names[i]]
            total = ends[i] - starts[i]
            own = total - child[i]
            row = funcs.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += total
            if in_op[i]:
                layers[layer_of[charged[i]]] += own
            if names[i] == profile_id and in_decompose[i]:
                exact_checks += 1
        counters = dict(self.counters)
        counters["recognize.decompose.exact_checks"] = exact_checks
        caches = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is None:
                continue
            ci = info()
            caches[name] = [ci.hits, ci.misses]
        return {"funcs": funcs, "layers": dict(layers), "counters": counters,
                "caches": caches, "absent": self.absent}

    @staticmethod
    def _layer(name):
        return name.split(".")[0]

    def _id(self, name):
        return self.names.index(name) if name in self.names else -2
