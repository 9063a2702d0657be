import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from epiword.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_directive(capsys):
    code, out, _ = run(capsys, "generate", "--directive", "*ab", "--length", "6")
    assert code == 0
    assert out.strip() == "abaaba"
    code, _, err = run(capsys, "generate", "--directive", "ab", "--length", "40")
    assert code == 2
    assert err == "error: directive ab exhausted at length 3, need 40\n"


def test_generate_mechanical(capsys):
    code, out, _ = run(capsys, "generate", "--mechanical", "1/3:1/3", "--length", "6")
    assert code == 0
    assert out.strip() == "abaaba"


def test_generate_skew(capsys):
    code, out, _ = run(capsys, "generate", "--skew", "b,a", "--length", "4")
    assert code == 0
    assert out.strip() == "baaa"


def test_generate_episkew(capsys):
    spec = json.dumps(
        {"mu": "", "excluded_letter": "c", "inner_directive": "*ab", "p": 0, "suffix_index": 1}
    )
    code, out, _ = run(capsys, "generate", "--episkew", spec, "--length", "7")
    assert code == 0
    assert out.strip() == "cabaaba"


def test_generate_bad_spec(capsys):
    code, _, err = run(capsys, "generate", "--mechanical", "x:y", "--length", "5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "spec",
    [
        {"excluded_letter": 5},
        {"inner_directive": 7},
        {"p": None},
        {"p": float("inf")},
        {"mu": ["a"]},
        {"p": 1.5},
        {"suffix_index": True},
    ],
)
def test_malformed_episkew_spec_is_input_error(capsys, spec):
    # JSON that parses but has the wrong shape is an input error (exit 2),
    # never a traceback, wherever an episkew spec is accepted.
    valid = dict(mu="", excluded_letter="c", inner_directive="*ab", p=0, suffix_index=1)
    text = json.dumps({**valid, **spec})
    for argv in (
        ["generate", "--episkew", text, "--length", "5"],
        ["test", "fine", text, "--k", "3"],
        ["complexity", text, "--max-n", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: episkew ")
    for text in ("[1]", '"x"'):
        code, _, err = run(capsys, "generate", "--episkew", text, "--length", "5")
        assert code == 2
        assert err == f"error: episkew spec must be a JSON object, got {json.loads(text)!r}\n"


def test_minmax(capsys):
    code, out, _ = run(capsys, "minmax", "baabacababac", "--order", "bac")
    assert code == 0
    assert "min=babac" in out
    code, out, _ = run(capsys, "minmax", "baabacababac", "--order", "bac", "--k", "3")
    assert "min=bab" in out


def test_minmax_bad_order(capsys):
    code, _, err = run(capsys, "minmax", "abc", "--order", "ab")
    assert code == 2
    assert err == "error: letter 'c' outside alphabet 'ab'\n"
    code, out, err = run(capsys, "minmax", "ab", "--order", "")
    assert code == 2
    assert out == ""
    assert err == "error: letter 'a' outside alphabet ''\n"


def test_test_episturmian(capsys):
    code, out, _ = run(capsys, "test", "episturmian", "baabacababac")
    assert code == 0
    assert "witness=aba" in out
    code, out, _ = run(capsys, "test", "episturmian", "aabababaabaab")
    assert code == 1
    assert "no" in out


def test_test_wide(capsys):
    code, out, _ = run(capsys, "test", "wide", "aabababaabaab")
    assert code == 1
    assert "bad factor" in out


def test_test_fine(capsys):
    code, _, _ = run(capsys, "test", "fine", "*abc", "--k", "12")
    assert code == 0
    code, _, _ = run(capsys, "test", "fine", "b*a", "--k", "8")
    assert code == 1
    code, _, _ = run(capsys, "test", "fine", "b,a", "--k", "6")
    assert code == 0


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "baabacababac")
    assert code == 0
    assert out.strip().startswith("aba")
    code, out, _ = run(capsys, "witness", "aabababaabaab")
    assert code == 1
    assert out.strip() == "none"


def test_balanced(capsys):
    code, out, _ = run(capsys, "balanced", "ababaabaabab")
    assert code == 0
    code, out, _ = run(capsys, "balanced", "aabababaabaab")
    assert code == 1
    assert "u=aba" in out


def test_complexity(capsys):
    code, out, _ = run(capsys, "complexity", "*ab", "--max-n", "5", "--length", "200")
    assert code == 0
    assert out.split() == ["2", "3", "4", "5", "6"]
    code, out, _ = run(capsys, "complexity", "aaaa", "--max-n", "3")
    assert out.split() == ["1", "1", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["*ab", "--max-n", "0"],
        ["*ab", "--max-n", "-3"],
        ["*ab", "--max-n", "3", "--length", "-5"],
        ["aaaa", "--max-n", "0"],
    ],
)
def test_complexity_rejects_out_of_range_lengths(capsys, argv):
    code, out, err = run(capsys, "complexity", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "episturmian", "--alphabet", "2", "--max-len", "7")
    assert code == 0
    assert "mismatches=0" in out
    assert "elapsed=" in out


def test_verify_json_has_no_timing(capsys):
    code, out, _ = run(
        capsys, "verify", "episturmian", "--alphabet", "2", "--max-len", "6", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert "elapsed_seconds" not in data


def test_json_outputs_are_stable(capsys):
    _, first, _ = run(capsys, "test", "episturmian", "baabacababac", "--json")
    _, second, _ = run(capsys, "test", "episturmian", "baabacababac", "--json")
    assert first == second
    verdict = json.loads(first)
    assert verdict["accepted"] is True
    cert = verdict["certificate"]
    assert set(cert) == {
        "reduction_letters",
        "base_word",
        "embedding_directive",
        "occurrence_index",
        "witness_u",
    }


def test_malformed_word_rejected(capsys):
    code, _, err = run(capsys, "minmax", "abc!")
    assert code == 2
    code, _, err = run(capsys, "balanced", "ABC")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--length", "5"])
    assert exc.value.code == 2


def test_words_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("ababaabaabab\naabababaabaab\n"))
    code, out, _ = run(capsys, "balanced", "-")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "balanced"
    assert lines[1] == "not balanced: u=aba"


def _run_checkout(*argv, **env):
    # The subprocess does not see pytest's pythonpath setting, so it gets
    # the checkout's src on PYTHONPATH and runs from an uninstalled tree.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "epiword", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_output_independent_of_hash_seed():
    outs = set()
    for seed in ("0", "1", "99"):
        proc = _run_checkout(
            "test", "episturmian", "baabacababac", "--json", PYTHONHASHSEED=seed
        )
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_long_skew_prefix_stays_fast():
    # Appending the period one copy at a time took 5.4-6 s at this length
    # (2-vCPU VM, Python 3.11.7).
    # A fresh interpreter times the call: in one that has run other tests,
    # the cost of growing a string in place depends on the heap.
    start = time.perf_counter()
    proc = _run_checkout("generate", "--skew", "b,a", "--length", "400000")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    assert proc.stdout == "b" + "a" * 399_999 + "\n"
    assert elapsed < 2.0, elapsed


def test_inconclusive_exit_code(capsys, monkeypatch):
    import epiword.classify as classify

    monkeypatch.setattr(classify, "STABILITY_BUDGET", 32)
    code, _, err = run(capsys, "test", "fine", "*abc", "--k", "12")
    assert code == 3
    assert "inconclusive" in err


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    from epiword.generate import DirectiveSpec

    def exhausted(self, n):
        raise MemoryError

    monkeypatch.setattr(DirectiveSpec, "prefix", exhausted)
    code, out, err = run(capsys, "generate", "--directive", "*ab", "--length", "300000000")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"
