#!/usr/bin/env python3
"""epiword benchmark runner. Standard library only; see README.md here.

Usage, from the repository root:

    python3 perfbench/run.py --workload {decide,sweep,extremal} --seed N \
        --seconds S --trace {0,1}

The runner builds the workload's inputs from the seed, then runs
repetitions for about S seconds. Each repetition is a fresh worker process (one
at a time, closed loop, one caller) that imports epiword, loads the inputs,
reports ready and runs every op once. Every op output is checked (checks.py)
and compared with the digest recorded at the commit that defined the
benchmark (reference.json), where the seed has one.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics, end-to-end ones with --trace 0 and per-layer ones with --trace 1.
The line before it gives the run's details and the machine it ran on.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
# A fixed hash seed gives every worker the same set layouts, so the same
# inputs do the same work in every repetition.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".perfbench_out"
# Set-up samples taken by spawning a worker that exits once ready, before
# each repetition; setup_s is the median of these and the repetitions' own.
PROBES_PER_REP = 1
MIN_REPS = 3
# The run stops starting repetitions after this many seconds, and kills a
# worker still running at HARD_STOP, so every run ends within 180 s.
LAST_START = 100.0
HARD_STOP = 160.0


@dataclass
class Rep:
    """One repetition: set-up time, and per op its seconds and output."""

    setup_s: float | None = None
    seconds: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    rss_mb: float | None = None
    complete: bool = False


def run_worker(cmd, payload: str, n_ops: int, go: bool, kill_at: float) -> Rep:
    """Spawn one worker, send it the inputs and collect its op lines.

    A worker that exits early, prints garbage or is killed at kill_at (a
    perf_counter time) leaves the missing ops with output None.
    """
    rep = Rep(seconds=[None] * n_ops, outputs=[None] * n_ops, errors=[None] * n_ops)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    watchdog = threading.Timer(max(0.0, kill_at - t0), proc.kill)
    watchdog.start()
    try:
        try:
            proc.stdin.write(payload + "\n")
            proc.stdin.flush()
            ready = proc.stdout.readline()
            if json.loads(ready or "{}").get("ready") is not True:
                return rep
            rep.setup_s = perf_counter() - t0
            if go:
                proc.stdin.write("go\n")
            proc.stdin.close()
        except (BrokenPipeError, json.JSONDecodeError):
            return rep
        for line in proc.stdout:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if record.get("end"):
                rep.rss_mb = record["rss_kb"] / 1024
                rep.complete = True
                break
            i = record["i"]
            if "error" in record:
                rep.errors[i] = record["error"]
            else:
                rep.seconds[i] = record["s"]
                rep.outputs[i] = record["out"]
        return rep
    finally:
        if not rep.complete:
            proc.kill()
        if not proc.stdin.closed:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
        proc.stdout.close()
        if proc.wait() != 0:
            rep.complete = False
        watchdog.cancel()


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default), q in [0, 1]."""
    s = sorted(values)
    if not s:
        return 0.0
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def slope(points):
    """Least-squares slope of y on x, 0.0 with fewer than two x values."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": model}


def load_reference(workload: str, seed: int):
    """Recorded per-op digests for this workload and seed, or None."""
    try:
        with open(REFERENCE) as f:
            table = json.load(f).get(workload, {})
    except FileNotFoundError:
        return None
    text = table.get("*", table.get(str(seed)))
    return None if text is None else [text[i : i + 8] for i in range(0, len(text), 8)]


class Judge:
    """Decides, per op and repetition, whether the op failed.

    An op fails if it raised, if its output is missing (the worker crashed
    or was killed), if its digest differs from the recorded reference, or
    if its output fails the independent check. Each distinct output is
    checked once.
    """

    def __init__(self, ep, ops, meta, reference):
        self.ep, self.ops, self.meta, self.reference = ep, ops, meta, reference
        self._checked = {}

    def digests(self, rep: Rep):
        return [None if o is None else checks.digest(o) for o in rep.outputs]

    def failed(self, rep: Rep) -> list[bool]:
        out = []
        for i, (o, d) in enumerate(zip(rep.outputs, self.digests(rep))):
            if o is None or rep.errors[i] is not None:
                out.append(True)
                continue
            if self.reference is not None and self.reference[i] != d:
                out.append(True)
                continue
            key = (i, d)
            if key not in self._checked:
                self._checked[key] = checks.check(self.ep, self.ops[i], self.meta[i], o)
            out.append(not self._checked[key])
        return out


def op_weight(meta) -> int:
    """Operations an op counts for: words swept for a sweep, else one."""
    return meta.get("words", 1)


def tally(failed, meta) -> tuple[int, int]:
    """(attempted, failed) operations over repetitions' failure flags."""
    attempted = sum(op_weight(m) for m in meta) * len(failed)
    lost = sum(op_weight(m) for f in failed for m, bad in zip(meta, f) if bad)
    return attempted, lost


def op_times(reps, failed) -> list:
    """Each op's fastest seconds over the repetitions where it succeeded.

    The ops are deterministic CPU work, so their spread between repetitions
    is the machine's noise, which only ever adds time. The fastest sample is
    the steadiest estimate of the op's own cost.
    """
    out = []
    for i in range(len(reps[0].seconds) if reps else 0):
        samples = [r.seconds[i] for r, f in zip(reps, failed) if r.seconds[i] is not None and not f[i]]
        out.append(min(samples) if samples else None)
    return out


def ops_per_s(reps, failed, meta) -> float:
    times = op_times(reps, failed)
    done = [i for i, t in enumerate(times) if t is not None]
    busy = sum(times[i] for i in done)
    return sum(op_weight(meta[i]) for i in done) / busy if busy > 0 else 0.0


def run_reps(cmd, payload, n_ops, seconds, started, min_reps=MIN_REPS, probes=PROBES_PER_REP, after=None):
    """Repetitions for about `seconds`: no repetition starts that would end
    past it, judged by the previous one, unless fewer than min_reps have
    run. None starts after LAST_START. `after` is called on each repetition.

    Returns (reps, set-up samples).
    """
    reps, setups = [], []
    begin = perf_counter()
    last = 0.0
    while True:
        now = perf_counter()
        if reps and (now - started >= LAST_START or (len(reps) >= min_reps and now - begin + last > seconds)):
            break
        kill_at = started + HARD_STOP
        for _ in range(probes):
            probe = run_worker(cmd, payload, n_ops, go=False, kill_at=kill_at)
            if probe.setup_s is not None:
                setups.append(probe.setup_s)
        rep = run_worker(cmd, payload, n_ops, go=True, kill_at=kill_at)
        if rep.setup_s is not None:
            setups.append(rep.setup_s)
        reps.append(rep)
        if after:
            after(rep)
        last = perf_counter() - now
    return reps, setups


def end_to_end(reps, failed, setups, meta) -> dict:
    """The end-to-end metrics over a run's untraced repetitions."""
    per_op = [t * 1000 for t in op_times(reps, failed) if t is not None]
    attempted, lost = tally(failed, meta)
    return {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (ops_per_s(reps, failed, meta), "1/s"),
        "op_p50_ms": (quantile(per_op, 0.5), "ms"),
        "op_p90_ms": (quantile(per_op, 0.9), "ms"),
        "peak_rss_mb": (median([r.rss_mb for r in reps if r.rss_mb is not None]), "MB"),
        "ok_ratio": (1 - lost / attempted, "ratio"),
    }


# Growth slopes: (metric, function, family, x of the op's size).
SLOPES = (
    ("classify.is_finite_episturmian.slope_runs", "classify.is_finite_episturmian", "runs_decide", math.log),
    ("classify.wide_sense_check.slope_runs", "classify.wide_sense_check", "runs_wide", math.log),
    ("words.min_of.slope_runs", "words.min_of", "runs_minmax", math.log),
    ("classify.is_balanced.slope_n", "classify.is_balanced", "balanced", math.log),
    ("classify.check_fine_prefix.slope_alphabet", "classify.check_fine_prefix", "fine", float),
)


def layer_metrics(spans, meta) -> dict:
    """The per-layer metrics of one traced repetition's spans."""
    calls, self_s, counted, per_op, (final, generated) = tracing.aggregate(spans)
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["words.all_orders.orders"] = (counted["words.all_orders"], "count")
    out["generate.standard_prefix.letters"] = (counted["generate.standard_prefix"], "count")
    out["generate.standard_prefix.useful_ratio"] = (final / generated if generated else 0.0, "ratio")
    for metric, fn, family, x_of in SLOPES:
        points = [
            (x_of(m["n"]), math.log(per_op[(i, fn)] / m.get("repeat", 1)))
            for i, m in enumerate(meta)
            if m["family"] == family and per_op.get((i, fn), 0.0) > 0
        ]
        out[metric] = (slope(points), "log/log" if x_of is math.log else "log/letter")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "epiword", "__init__.py")):
        print(f"error: no epiword package under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import epiword

    ops, meta = workloads.make_ops(args.workload, args.seed)
    payload = workloads.payload(ops, meta)
    reference = load_reference(args.workload, args.seed)
    if reference is not None and len(reference) != len(ops):
        print("error: reference.json does not match the workload; re-record it", file=sys.stderr)
        return 2
    judge = Judge(epiword, ops, meta, reference)
    cmd = [sys.executable, WORKER]

    if not args.trace:
        reps, setups = run_reps(cmd, payload, len(ops), args.seconds, started)
        traced = []
    else:
        # Half the time untraced, half traced; the difference in ops_per_s
        # is the tracing overhead. End-to-end metrics never come from here.
        reps, setups = run_reps(cmd, payload, len(ops), args.seconds / 2, started, min_reps=1, probes=0)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.bin")
        layers = []

        def analyse(rep):
            if rep.complete:
                layers.append(layer_metrics(tracing.load(path), meta))

        traced, _ = run_reps(
            cmd + ["--trace", path], payload, len(ops), args.seconds / 2, started, min_reps=1, probes=0, after=analyse
        )

    failed = [judge.failed(r) for r in reps]
    base = judge.digests(reps[0])
    for rep in traced:
        # The traced run must reproduce the untraced outputs exactly.
        f = judge.failed(rep)
        failed.append([x or d != b for x, d, b in zip(f, judge.digests(rep), base)])
    all_reps = reps + traced
    attempted, lost = tally(failed, meta)

    if not args.trace:
        metrics = end_to_end(reps, failed, setups, meta)
    else:
        # With no traced repetition complete, every layer metric reads 0.
        units = layer_metrics(tracing.load_empty(), meta)
        metrics = {name: (median([m[name][0] for m in layers]), unit) for name, (_, unit) in units.items()}
        untraced = ops_per_s(reps, failed[: len(reps)], meta)
        traced_rate = ops_per_s(traced, failed[len(reps) :], meta)
        metrics["trace.overhead_ops_per_s"] = (traced_rate - untraced, "1/s")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reps": len(reps),
        "traced_reps": len(traced),
        "setup_samples": len(setups),
        "ops_per_rep": len(ops),
        "op_samples": len(ops) * len(reps),
        "fail_ratio": lost / attempted,
        "digest_reference": "recorded" if reference is not None else "none for this seed",
        "crashed_reps": sum(not r.complete for r in all_reps),
        "wall_s": perf_counter() - started,
        "env": environment(),
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": lost == 0 and all(r.complete for r in all_reps),
        "attempted": attempted,
        "failed": lost,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
