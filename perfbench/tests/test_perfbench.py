"""Self-tests for the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import epiword  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _shape(meta):
    return Counter((m["family"], m["n"]) for m in meta)


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)


def test_another_seed_keeps_families_sizes_and_counts():
    for name in ("decide", "extremal"):
        ops_a, meta_a = workloads.make_ops(name, 7)
        ops_b, meta_b = workloads.make_ops(name, 8)
        assert _shape(meta_a) == _shape(meta_b)
        assert len(ops_a) == len(ops_b) >= 100
        shared = {json.dumps(o) for o in ops_a} & {json.dumps(o) for o in ops_b}
        assert len(shared) < len(ops_a) // 10


def test_standard_word_matches_library():
    for directive in ("ab", "abc", "aabcab", "bcabbbca", "abcdef"):
        spec = epiword.DirectiveSpec(directive)
        for n in (1, 10, 100):
            ours = workloads.standard_word(directive, n)
            if len(ours) >= n:
                assert ours == epiword.standard_prefix(spec, n)


def test_expected_verdicts_hold_on_small_inputs():
    ops, meta = workloads.make_ops("decide", 3)
    for op, m in zip(ops, meta):
        if m["family"] in ("factor", "psi") and m["n"] == 100:
            out = worker.run_op(epiword, op)
            assert out["accepted"] is m["expect"], op


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "epiword" or name.startswith("epiword.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_leaves_outputs_unchanged_and_is_removed(tmp_path):
    ops, _ = workloads.make_ops("decide", 4)
    ops = [op for op in ops if len(op[1]) <= 200][:20]
    plain = [worker.run_op(epiword, op) for op in ops]
    before = _bindings()
    tracer = tracing.Tracer(epiword)
    tracer.install()
    assert epiword.classify.min_of is not before[("epiword.classify", "min_of")]
    assert epiword.min_of is epiword.words.min_of
    for i, op in enumerate(ops):
        tracer.op = i
        assert worker.run_op(epiword, op) == plain[i]
    tracer.remove()
    assert _bindings() == before
    path = str(tmp_path / "spans.bin")
    tracer.dump(path)
    calls, self_s, _, per_op, _ = tracing.aggregate(tracing.load(path))
    assert calls["classify.is_finite_episturmian"] > 0
    assert all(s >= -1e-9 for s in self_s.values())
    assert {i for i, _ in per_op} <= set(range(len(ops)))


def test_self_time_subtracts_direct_children():
    names = tracing.NAMES
    outer, inner = names.index("classify.check_fine_prefix"), names.index("generate.standard_prefix")
    spans = (
        list(names),
        array("H", [outer, inner, inner]),
        array("i", [0, 0, 0]),
        array("i", [-1, 0, 0]),
        array("d", [0.0, 1.0, 3.0]),
        array("d", [10.0, 2.0, 5.0]),
        array("Q", [0, 64, 128]),
    )
    calls, self_s, counted, _, checks = tracing.aggregate(spans)
    assert calls["generate.standard_prefix"] == 2
    assert self_s["classify.check_fine_prefix"] == 7.0
    assert self_s["generate.standard_prefix"] == 3.0
    assert counted["generate.standard_prefix"] == 192
    assert checks == (128, 192)


CRASHING = (
    "import sys; sys.stdin.readline(); print('{\"ready\": true}', flush=True);"
    "sys.stdin.readline(); print('{\"i\": 0, \"s\": 0.001, \"out\": true}', flush=True);"
    "sys.exit(3)"
)


def test_crashed_worker_counts_failures_and_run_continues():
    ops = [["balanced", "ab"], ["balanced", "aab"], ["balanced", "abb"]]
    meta = [{"family": "balanced", "n": 2}] * 3
    cmd = [sys.executable, "-c", CRASHING]
    started = run.perf_counter()
    reps, setups = run.run_reps(cmd, json.dumps(ops), len(ops), 0.0, started, min_reps=2, probes=1)
    assert len(reps) == 2 and len(setups) == 4
    assert not any(r.complete for r in reps)
    judge = run.Judge(epiword, ops, meta, None)
    failed = [judge.failed(r) for r in reps]
    assert failed == [[False, True, True]] * 2
    metrics = run.end_to_end(reps, failed, setups, meta)
    assert abs(metrics["ok_ratio"][0] - 1 / 3) < 1e-12


def test_runner_refuses_to_run_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "decide", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_worker_repeats_an_op_and_traces_every_call(tmp_path):
    ops = [["min", "abaab" * 20, "ab"], ["max", "abaab" * 20, "ba"]]
    meta = [{"family": "random", "n": 100, "repeat": 3}, {"family": "random", "n": 100}]
    path = str(tmp_path / "spans.bin")
    cmd = [sys.executable, run.WORKER, "--trace", path]
    rep = run.run_worker(cmd, workloads.payload(ops, meta), len(ops), True, run.perf_counter() + 60)
    assert rep.complete
    assert rep.outputs == [worker.run_op(epiword, op) for op in ops]
    calls, _, _, per_op, _ = tracing.aggregate(tracing.load(path))
    assert calls["words.min_of"] == 3 and calls["words.max_of"] == 1
    assert (0, "words.min_of") in per_op and (1, "words.max_of") in per_op
