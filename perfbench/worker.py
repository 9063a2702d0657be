"""Benchmark worker: runs one repetition of a workload in a fresh process.

Protocol, one JSON document per line:
- stdin, line 1: ``{"ops": [...], "repeat": [...]}`` (see workloads.py);
  the worker then prints ``{"ready": true}`` once epiword is imported and
  the inputs are loaded;
- stdin, line 2: ``go`` to run the ops; end of input instead makes the
  worker exit at once, which is how run.py takes extra set-up samples;
- stdout: one ``{"i", "s", "out"}`` (or ``"error"``) line per op, in op
  order, with the op's own seconds (its fastest call, for an op called
  ``repeat`` times in a row), then ``{"end": true, "rss_kb": ...}``.

With ``--trace PATH`` the worker wraps epiword's public functions (see
tracing.py) before it reports ready, removes the wrappers after the last
op and writes the spans to PATH.

Usage: python3 perfbench/worker.py [--trace PATH]  (from the repository root)
"""

import dataclasses
import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import epiword  # noqa: E402
import epiword.cli  # noqa: E402


def run_op(ep, op):
    """Run one op through the library and return its JSON-ready output."""
    kind, args = op[0], op[1:]
    if kind == "decide":
        return ep.is_finite_episturmian(args[0]).to_json_dict()
    if kind == "wide":
        r = ep.wide_sense_check(args[0])
        return {"ok": r.ok, "bad_factor": r.bad_factor}
    if kind == "min":
        return ep.min_of(args[0], ep.Order(args[1]))
    if kind == "max":
        return ep.max_of(args[0], ep.Order(args[1]))
    if kind == "balanced":
        return ep.is_balanced(args[0])
    if kind == "sturmian":
        return dataclasses.asdict(ep.sturmian_test(args[0]))
    if kind == "witness":
        return ep.check_witness(args[0], args[1])
    if kind == "fine":
        return ep.check_fine_prefix(ep.DirectiveSpec.from_text(args[0]), args[1])
    if kind == "mineq":
        return ep.check_min_inequality(ep.DirectiveSpec.from_text(args[0]), args[1])
    if kind == "complexity":
        return ep.factor_complexity(args[0], args[1])
    if kind == "verify":
        check, size, max_len = args
        argv = ["verify", check, "--alphabet", str(size), "--max-len", str(max_len), "--json"]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = ep.cli.main(argv)
        return {"exit": code, "stdout": buf.getvalue()}
    raise ValueError(f"unknown op kind {kind!r}")


def main(argv) -> int:
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    out = sys.stdout
    inputs = json.loads(sys.stdin.readline())
    ops, repeat = inputs["ops"], inputs["repeat"]
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer(epiword)
        tracer.install()
    out.write('{"ready": true}\n')
    out.flush()
    if sys.stdin.readline().strip() != "go":
        return 0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        best = None
        try:
            for _ in range(repeat[i]):
                t0 = perf_counter()
                result = run_op(epiword, op)
                s = perf_counter() - t0
                best = s if best is None else min(best, s)
        except Exception:
            record = {"i": i, "s": perf_counter() - t0, "error": traceback.format_exc(limit=3)}
        else:
            record = {"i": i, "s": best, "out": result}
        out.write(json.dumps(record) + "\n")
        out.flush()
    if tracer:
        tracer.remove()
        tracer.dump(trace_path)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"end": True, "rss_kb": rss_kb}) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
