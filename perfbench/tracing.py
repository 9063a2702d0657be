"""Per-layer spans recorded from outside the library.

The tracer wraps each listed public function of epiword in every module
namespace that binds it (``classify`` imports ``min_of`` by name, ``cli``
imports ``sweep``, the package re-exports nearly everything), so a call
reaches the wrapper whichever module makes it. Each call records one span:
function, op index, parent span, start and end, plus a count for the
functions in COUNTED. Spans stay in flat arrays in memory until the worker
writes them out with ``dump``; ``load`` and ``aggregate`` read them back.
"""

import json
import sys
from array import array
from functools import wraps
from time import perf_counter

# module -> public functions traced, named <module>.<function> in metrics.
TRACED = {
    "words": ("min_of", "max_of", "factors", "all_orders", "lex_le"),
    "generate": ("pal_closure", "psi_inverse", "standard_prefix", "apply_morphism"),
    "classify": (
        "is_finite_episturmian",
        "check_witness",
        "wide_sense_check",
        "separating_letters",
        "is_balanced",
        "sturmian_test",
        "check_fine_prefix",
        "check_min_inequality",
    ),
    "oracles": ("sweep", "discovery_table"),
    "cli": ("main",),
}

# Functions whose span also records the length of the returned value:
# orders enumerated, letters generated.
COUNTED = ("words.all_orders", "generate.standard_prefix")

NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# Span fields: function, op, parent span, start, end, count.
TYPECODES = "HiiddQ"


class Tracer:
    """Installs span-recording wrappers on a package and removes them."""

    def __init__(self, package):
        self.package = package
        self.op = 0
        self.fn, self.ops, self.parent, self.start, self.end, self.count = (array(c) for c in TYPECODES)
        self._stack = [-1]
        self._restore = []

    def _modules(self):
        prefix = self.package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _wrap(self, fid: int, fn, counted: bool):
        fns, ops, parents = self.fn, self.ops, self.parent
        starts, ends, counts, stack = self.start, self.end, self.count, self._stack
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            ops.append(tracer.op)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            counts.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counted:
                counts[idx] = len(result)
            return result

        return traced

    def install(self):
        modules = self._modules()
        for fid, name in enumerate(NAMES):
            mod_name, fn_name = name.split(".")
            original = getattr(getattr(self.package, mod_name), fn_name)
            wrapper = self._wrap(fid, original, name in COUNTED)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def remove(self):
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def dump(self, path: str):
        """Write the spans: one JSON header line, then the raw arrays."""
        arrays = (self.fn, self.ops, self.parent, self.start, self.end, self.count)
        header = {"names": NAMES, "spans": len(self.fn)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(f)


def load(path: str):
    """(names, fn, op, parent, start, end, count) as written by dump."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = []
        for code in TYPECODES:
            a = array(code)
            a.fromfile(f, header["spans"])
            arrays.append(a)
    return (header["names"], *arrays)


def load_empty():
    """A span set with no spans, in the form load returns."""
    return (list(NAMES), *(array(code) for code in TYPECODES))


def aggregate(spans):
    """Per-function totals and per-op self times from loaded spans.

    Returns (calls, self_s, counted, per_op, checks):
    - calls[name], self_s[name], counted[name] (sum of recorded counts);
    - per_op[(op, name)] = self seconds of that function within that op;
    - checks = (final, generated) letters over every stability check: the
      last and the summed standard_prefix lengths inside each span of
      check_fine_prefix or check_min_inequality.
    A span's self time is its duration minus its direct children's.
    """
    names, fn, op, parent, start, end, count = spans
    n = len(fn)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls = {name: 0 for name in names}
    self_s = {name: 0.0 for name in names}
    counted = {name: 0 for name in names}
    per_op = {}
    stability = {names.index("classify.check_fine_prefix"), names.index("classify.check_min_inequality")}
    prefix_id = names.index("generate.standard_prefix")
    last, generated = {}, {}
    for i in range(n):
        name = names[fn[i]]
        s = end[i] - start[i] - child[i]
        calls[name] += 1
        self_s[name] += s
        counted[name] += count[i]
        key = (op[i], name)
        per_op[key] = per_op.get(key, 0.0) + s
        if fn[i] == prefix_id:
            a = parent[i]
            while a >= 0 and fn[a] not in stability:
                a = parent[a]
            if a >= 0:
                last[a] = count[i]
                generated[a] = generated.get(a, 0) + count[i]
    checks = (sum(last.values()), sum(generated.values()))
    return calls, self_s, counted, per_op, checks
