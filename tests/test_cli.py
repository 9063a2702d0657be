import json
import shlex
import time
from pathlib import Path

import pytest

import ci_checks
from ci_checks import EPIWORD, PYTHON
from epiword.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_examples():
    """(argv, exit code, stdout lines) for each `$ epiword ...` line of the
    README's Examples block. A trailing `; echo "exit $?"` prints the exit
    code as the last output line; without one the code is 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, _, echo = line[2:].partition(" ; ")
            program, *argv = shlex.split(command)
            assert program == "epiword", line
            examples.append((argv, bool(echo), []))
        else:
            examples[-1][2].append(line)
    return [
        (argv, int(out.pop().removeprefix("exit ")) if echo else 0, out)
        for argv, echo, out in examples
    ]


def test_readme_examples(capsys):
    examples = _readme_examples()
    assert len(examples) == 5
    for argv, expected_code, expected_lines in examples:
        code, out, _ = run(capsys, *argv)
        assert code == expected_code, argv
        # Wall time is the one line that differs from run to run.
        lines = [x for x in out.splitlines() if not x.startswith("elapsed=")]
        assert lines == [x for x in expected_lines if not x.startswith("elapsed=")], argv


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
        assert err == f"error: episkew spec must be a JSON object, got {type(json.loads(text)).__name__}\n"


_EPISKEW = '{"mu": "", "excluded_letter": "c", "inner_directive": "*ab", "p": 0, "suffix_index": 1}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--skew", "ab", "--length", "3"],
         "skew spec must be U,V with V non-empty: 'ab'"),
        (["generate", "--directive", "*ab", "--length", "-1"], "--length must be non-negative"),
        (["generate", "--episkew", _EPISKEW.replace('"c"', '"cc"'), "--length", "3"],
         "excluded_letter must be a single letter"),
        (["generate", "--episkew", _EPISKEW.replace('"p": 0', '"p": -1'), "--length", "3"],
         "p must be non-negative"),
        (["test", "fine", "abcdefghi,a", "--k", "1"],
         f"alphabet larger than 8: {list('abcdefghi')}"),
        (["test", "fine", "*abcdefghi", "--k", "1"],
         f"alphabet larger than 8: {list('abcdefghi')}"),
    ],
)
def test_input_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "spec, code, out, err",
    [
        ("1e-3:0", 0, "aaa\n", ""),
        ("1e-1000000:0", 0, "aaa\n", ""),
        ("1e-20000000:0", 2, "", "error: bad mechanical spec '1e-20000000:0': exponent above 1000000\n"),
        ("1e20000000:0", 2, "", "error: bad mechanical spec '1e20000000:0': exponent above 1000000\n"),
    ],
)
def test_mechanical_exponent_bound(capsys, spec, code, out, err):
    # Fraction would expand 1e-20000000 into a power of ten for well over
    # ten seconds; past the bound the spec is refused before that.
    start = time.perf_counter()
    assert run(capsys, "generate", "--mechanical", spec, "--length", "3") == (code, out, err)
    assert time.perf_counter() - start < 1.0


def test_mechanical_letters_cost_no_fraction_arithmetic(capsys):
    # The same bound as above at many letters: each letter is a carry of
    # integers, not arithmetic on million-digit numbers. The ceiling case
    # took 1.7 s when each letter was a floor division of a negative
    # numerator by the million-digit denominator (2-vCPU VM, Python 3.11.7).
    for flags, expected in (((), "a" * 1000), (("--ceiling",), "b" + "a" * 19_999)):
        start = time.perf_counter()
        argv = ("generate", "--mechanical", "1e-1000000:0", "--length", str(len(expected)))
        assert run(capsys, *argv, *flags) == (0, expected + "\n", ""), flags
        assert time.perf_counter() - start < 1.0, flags


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


@pytest.mark.parametrize("name", ci_checks.FINE_CASES)
def test_fine_reads_letters_that_first_occur_late(monkeypatch, name):
    # One case per test, so that a failure names its case.
    monkeypatch.setattr(ci_checks, "FINE_CASES", {name: ci_checks.FINE_CASES[name]})
    ci_checks.fine_late_letters(EPIWORD)


def test_fine_needs_an_infinite_directive(capsys):
    assert run(capsys, "test", "fine", "abc", "--k", "4") == (
        2, "", "error: directive abc is finite: it directs no infinite word\n"
    )


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


def test_balanced_long_runs_stay_fast(capsys):
    # The two extremes of a^k b a^k share a^(k-1) after their first
    # letters; comparing them took about 30 s at this k when each letter
    # cost a pass over the positions still in play.
    k = 20_000
    start = time.perf_counter()
    code, out, _ = run(capsys, "balanced", "a" * k + "b" + "a" * k, "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out) == {"word": "a" * k + "b" + "a" * k, "balanced": True, "u": None}
    assert elapsed < 0.5, elapsed


def test_balanced_runs_one_sturmian_test_per_word(capsys, monkeypatch):
    import io
    from itertools import product

    import epiword.classify as classify
    import epiword.cli as cli
    from epiword import is_balanced, sturmian_test

    words = ["".join(t) for n in range(1, 9) for t in product("ab", repeat=n)]
    expected = [
        {"word": w, "balanced": b, "u": None if b else sturmian_test(w).u}
        for w, b in ((w, is_balanced(w)) for w in words)
    ]
    tested = []

    def counted(w):
        tested.append(w)
        return sturmian_test(w)

    monkeypatch.setattr(cli, "sturmian_test", counted)
    monkeypatch.setattr(classify, "sturmian_test", counted)
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(words)))
    code, out, _ = run(capsys, "balanced", "-", "--json")
    assert code == 1
    assert [json.loads(line) for line in out.splitlines()] == expected
    assert tested == [w for w in words if set(w) == {"a", "b"}]
    assert sum(not e["balanced"] for e in expected) > 0


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


# Every subcommand, with and without --json, --k and --order, an argparse
# usage error and an input error between them, then the sweep workload's
# three verify --json calls in a row; each with its stdin, or None.
_REUSE_CALLS = [
    (["generate", "--directive", "*ab", "--length", "8"], None),
    (["generate", "--mechanical", "2/5", "--length", "6", "--ceiling", "--json"], None),
    (["generate", "--skew", "b,a", "--length", "5"], None),
    (["generate", "--episkew", _EPISKEW, "--length", "9", "--json"], None),
    (["minmax", "baabacababac"], None),
    (["minmax", "baabacababac", "--order", "bac", "--json"], None),
    (["minmax", "baabacababac", "--k", "3"], None),
    (["minmax", "-", "--order", "cba", "--k", "2", "--json"], "abcab\nbaca\n"),
    (["generate", "--length", "5"], None),
    (["test", "episturmian", "baabacababac"], None),
    (["test", "episturmian", "aabb", "--json"], None),
    (["witness", "aXb"], None),
    (["test", "wide", "abba"], None),
    (["test", "wide", "-", "--json"], "abab\naabb\n"),
    (["test", "fine", "*ab", "--k", "5"], None),
    (["test", "fine", "*abc", "--k", "4", "--json"], None),
    (["witness", "baabacababac"], None),
    (["witness", "-", "--json"], "ab\naabb\n"),
    (["balanced", "aabababaabaab"], None),
    (["balanced", "-", "--json"], "ab\nabba\n"),
    (["minmax", "--k"], None),
    (["complexity", "*ab", "--max-n", "5", "--length", "200"], None),
    (["complexity", "abcab", "--max-n", "3", "--json"], None),
    (["verify", "sturmian", "--alphabet", "2", "--max-len", "6"], None),
    (["verify", "episturmian", "--alphabet", "2", "--max-len", "10", "--json"], None),
    (["verify", "sturmian", "--alphabet", "2", "--max-len", "10", "--json"], None),
    (["verify", "episturmian", "--alphabet", "3", "--max-len", "6", "--json"], None),
]


def _call_main(capsys, monkeypatch, argv, stdin):
    import io

    import epiword.cli as cli

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    # verify's text mode ends with its wall time, the one line that varies.
    out = "".join(line for line in captured.out.splitlines(True) if not line.startswith("elapsed="))
    return code, out, captured.err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    import argparse

    import epiword.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    reused, after_first = [], None
    for argv, stdin in _REUSE_CALLS:
        reused.append(_call_main(capsys, monkeypatch, argv, stdin))
        if after_first is None:
            after_first = len(built)
    # Every parser is built during the first call; the rest reuse them.
    assert after_first > 0
    assert len(built) == after_first
    fresh = []
    for argv, stdin in _REUSE_CALLS:
        cli.build_parser.cache_clear()
        fresh.append(_call_main(capsys, monkeypatch, argv, stdin))
    assert reused == fresh
    codes = [code for code, _, _ in reused]
    assert {0, 1, 2, 3} >= set(codes) and {0, 1, 2} <= set(codes)
    assert reused[8][0] == 2 and reused[8][2].startswith("usage: epiword generate")
    assert reused[11] == (2, "", "error: word must be lowercase a-z letters, got 'aXb'\n")


def test_words_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("ababaabaabab\naabababaabaab\n"))
    code, out, _ = run(capsys, "balanced", "-")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == "balanced"
    assert lines[1] == "not balanced: u=aba"


def test_stdin_blank_lines_only_is_an_input_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n\t\n"))
    assert run(capsys, "balanced", "-") == (2, "", "error: no words on stdin\n")


def test_stdin_words_are_validated_before_they_are_judged(capsys, monkeypatch):
    import io

    # Order would name the letter instead: letter 'X' outside alphabet.
    monkeypatch.setattr("sys.stdin", io.StringIO("aXb\n"))
    code, out, err = run(capsys, "minmax", "-")
    assert (code, out) == (2, "")
    assert err == "error: word must be lowercase a-z letters, got 'aXb'\n"


@pytest.mark.parametrize("command", [["balanced"], ["test", "episturmian"]])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_stdin_batch_prints_results_before_an_invalid_word(
    capsys, monkeypatch, command, json_flag
):
    import io

    expected = "".join(run(capsys, *command, w, *json_flag)[1] for w in ("ab", "abba"))
    monkeypatch.setattr("sys.stdin", io.StringIO("ab\nabba\nAB\nba\n"))
    code, out, err = run(capsys, *command, "-", *json_flag)
    assert (code, out) == (2, expected)
    assert err == "error: word must be lowercase a-z letters, got 'AB'\n"


def test_stdin_words_are_judged_as_they_are_read(capsys, monkeypatch):
    # The third read fails as a line too long for memory would: the two
    # words before it were judged and printed before it was read.
    def lines():
        yield "ab\n"
        yield "abba\n"
        raise MemoryError

    monkeypatch.setattr("sys.stdin", lines())
    code, out, err = run(capsys, "balanced", "-")
    assert (code, out, err) == (2, "balanced\nbalanced\n", "error: out of memory\n")


def test_fractions_loaded_only_for_a_mechanical_spec():
    # fractions, with the decimal module it loads, took about 1 ms of every
    # start-up (2-vCPU VM, Python 3.11.7); only a mechanical spec needs it.
    script = (
        "import sys, epiword, epiword.cli\n"
        "print('fractions' in sys.modules)\n"
        "epiword.cli.main(['generate', '--mechanical', '2/5', '--length', '5'])\n"
        "print('fractions' in sys.modules)\n"
    )
    proc = ci_checks.run(PYTHON, "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "aabab", "True"]


@pytest.mark.parametrize("name", ci_checks.CLOSED_STDOUT)
def test_closed_stdout_exits_2_without_a_traceback(monkeypatch, name):
    monkeypatch.setattr(ci_checks, "CLOSED_STDOUT", {name: ci_checks.CLOSED_STDOUT[name]})
    ci_checks.closed_stdout(EPIWORD, 20_000)


def test_output_independent_of_hash_seed():
    outs = set()
    for seed in ("0", "1", "99"):
        proc = ci_checks.run(
            EPIWORD, "test", "episturmian", "baabacababac", "--json", env={"PYTHONHASHSEED": seed}
        )
        assert proc.returncode == 0
        outs.add(proc.stdout)
    assert len(outs) == 1



@pytest.mark.parametrize("depth", [1000, 10**5])
def test_deeply_nested_episkew_json_is_input_error(depth):
    # The JSON parser recurses once per level; past the recursion limit the
    # spec is an input error, not a RecursionError traceback. Python 3.12
    # and later parse depth 1 000 and end it as a decode error instead.
    text = '{"a": ' + "[" * depth
    for argv in (
        ["generate", "--episkew", text, "--length", "5"],
        ["test", "fine", text, "--k", "3"],
        ["complexity", text, "--max-n", "3"],
    ):
        proc = ci_checks.run(EPIWORD, *argv)
        assert proc.returncode == 2, argv[0]
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

def test_deeply_nested_wrong_typed_episkew_value_has_a_short_message():
    # The message names the value's type, so stderr stays one short line
    # however deep the value is nested.
    deep = "[" * 900 + "]" * 900
    valid = '"excluded_letter": "c", "inner_directive": "*ab", "p": 0, "suffix_index": 1'
    for text in (deep, '{"mu": ' + deep + ", " + valid + "}"):
        proc = ci_checks.run(EPIWORD, "generate", "--episkew", text, "--length", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.endswith("got list\n")
        assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200


def test_long_skew_prefix_stays_fast():
    # Appending the period one copy at a time took 5.4-6 s at this length
    # (2-vCPU VM, Python 3.11.7).
    # A fresh interpreter times the call: in one that has run other tests,
    # the cost of growing a string in place depends on the heap.
    start = time.perf_counter()
    proc = ci_checks.run(EPIWORD, "generate", "--skew", "b,a", "--length", "400000")
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


def test_inconclusive_on_a_window_too_long_to_print(capsys):
    # c first occurs after 24 000 letters of directive, so the window has
    # about 5 000 digits, more than Python turns into a string by default.
    code, out, err = run(capsys, "test", "fine", "ab" * 12_000 + "c*c", "--k", "4")
    assert (code, out) == (3, "")
    assert err == "inconclusive: length-4 factors need a window past the 65536-letter budget\n"


def test_out_of_memory_is_an_input_error(capsys, monkeypatch):
    from epiword.generate import DirectiveSpec

    def exhausted(self, n):
        raise MemoryError

    monkeypatch.setattr(DirectiveSpec, "prefix", exhausted)
    code, out, err = run(capsys, "generate", "--directive", "*ab", "--length", "300000000")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"
