"""Fuzz gate for the CLI: every argv drawn from its grammar ends with a
documented exit code (0-3) or an argparse exit (0 or 2), and nothing else
escapes `cli.main`. Inputs too large for memory run in child processes under
their own address-space and CPU limits and must exit 2 cleanly.

Draws stay small where a command's cost grows fast: at most 4 letters for
the |A|! loop of the witness check, `verify` only at max-len 6 or below (or
past its budget), and the factor counts of `complexity` over long prefixes
only at a few lengths. `test fine` reads at most 2|A| orders, so it also
draws directives over 5 to 8 letters.
"""

import io
import json
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epiword.cli import main

# Words: valid letters, upper-case and foreign characters, the empty word,
# and one word past the 8-letter alphabet cap.
_valid_words = st.text(alphabet="abcd", max_size=14)
_junk_words = st.text(alphabet="abcdAZé1 *,{}-", max_size=8)
_words = st.one_of(_valid_words, _valid_words, _junk_words, st.just("abcdefghij"))
_word_args = st.one_of(_words, st.just("-"))


def _int_text(low, high):
    """An int in [low, high] as text, or text that is no int at all."""
    number = st.integers(low, high).map(str)
    return st.one_of(
        number, number, number, st.sampled_from(["", "x", "1.5", "1e3", "--", " 7", "0x10"])
    )


_lengths = _int_text(-3, 10**4)
_json = st.sampled_from([[], ["--json"]])
# Mostly nothing, sometimes help or an argument argparse rejects.
_extra = st.sampled_from([[]] * 9 + [["--help"], ["--bogus"], ["stray"]])

# Orders with repeated letters, upper-case letters or more than 8 letters.
_orders = st.one_of(
    st.permutations("abcd").map("".join),
    st.text(alphabet="abcdefghiZ", max_size=10),
)

_directives = st.builds(
    lambda pre, star, per: pre + star + per,
    st.text(alphabet="abcd", max_size=3),
    st.sampled_from(["*", "*", "", "**"]),
    st.text(alphabet="abcdZ", max_size=3),
)
# A shuffled period over 5 to 8 letters after an optional short preperiod.
_wide_directives = st.builds(
    lambda pre, per: pre + "*" + "".join(per),
    st.text(alphabet="abcdefgh", max_size=3),
    st.integers(5, 8).flatmap(lambda n: st.permutations("abcdefgh"[:n])),
)
_skews = st.builds(
    lambda u, comma, v: u + comma + v,
    st.text(alphabet="abcd", max_size=3),
    st.sampled_from([",", ",", ",,"]),
    st.text(alphabet="abcdZ", max_size=3),
)
_rationals = st.sampled_from(
    ["0", "1", "1/3", "2/5", "-1/2", "2", "1/0", "0.25", "x", "", "nan", "inf"]
)
_mechanicals = st.builds(
    lambda a, sep, r: a + sep + r, _rationals, st.sampled_from([":", ":", "", "::"]), _rationals
)

# Episkew specs: a valid object with some fields dropped or spoiled by a
# wrong-typed or out-of-range value, nested JSON, and malformed JSON text.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10**4),
    st.sampled_from([1.5, 2.0, -1.0, float("nan"), float("inf")]),
    st.text(alphabet="abcdZ*", max_size=4),
    st.sampled_from(["3", "x", ""]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["mu", "p", "a"]), inner, max_size=2),
    ),
    max_leaves=6,
)
_valid_fields = {
    "mu": st.text(alphabet="abcd", max_size=3),
    "excluded_letter": st.sampled_from(["c", "d"]),
    "inner_directive": st.sampled_from(["*ab", "a*b", "*a", "b*ab"]),
    "p": st.integers(0, 10**4),
    "suffix_index": st.integers(1, 8),
}


@st.composite
def _episkew_objects(draw):
    obj = {name: draw(value) for name, value in _valid_fields.items()}
    for name in draw(st.sets(st.sampled_from(sorted(obj)), max_size=2)):
        spoiled = draw(st.one_of(st.none(), _values))
        if spoiled is None:
            del obj[name]
        else:
            obj[name] = spoiled
    return obj


_episkews = st.one_of(
    _episkew_objects().map(json.dumps),
    _episkew_objects().map(json.dumps),
    _values.map(json.dumps),
    st.sampled_from(["{", "{}", '{"mu": }', "{'p': 1}", ' {"p": 1}', "{" * 40]),
)
_sources = st.one_of(_directives, _skews, _episkews)
_generate_specs = {
    "--directive": _directives,
    "--mechanical": _mechanicals,
    "--episkew": _episkews,
    "--skew": _skews,
}


@st.composite
def _argvs(draw):
    """(argv, stdin text) for one call of the CLI."""
    command = draw(
        st.sampled_from(
            ["generate", "test"] * 3
            + ["minmax", "witness", "balanced", "complexity"] * 2
            + ["verify", "nope"]
        )
    )
    if command == "generate":
        source = draw(st.sampled_from(sorted(_generate_specs)))
        spec = draw(_generate_specs[source])
        argv = [command, source, spec, "--length", draw(_lengths)]
        argv += draw(st.sampled_from([[], ["--ceiling"], ["--skew", "a,b"]]))
    elif command == "test":
        mode = draw(st.sampled_from(["episturmian", "wide", "fine", "other"]))
        if mode == "fine":
            # Every factor window is at least k letters long, so past
            # k = 65 536 the check is inconclusive before it computes one.
            k = st.one_of(_int_text(-3, 64), st.integers(65_537, 10**6).map(str))
            source = draw(_wide_directives if draw(st.booleans()) else _sources)
            argv = [command, mode, source, "--k", draw(k)]
        else:
            argv = [command, mode, draw(_word_args)]
    elif command == "minmax":
        argv = [command, draw(_word_args)]
        if draw(st.booleans()):
            argv += ["--order", draw(_orders)]
        if draw(st.booleans()):
            argv += ["--k", draw(_lengths)]
    elif command in ("witness", "balanced"):
        argv = [command, draw(_word_args)]
    elif command == "complexity":
        spec = draw(st.one_of(_words, _sources))
        length, max_n = draw(
            st.one_of(
                st.tuples(_int_text(-3, 300), _lengths),
                st.tuples(_lengths, _int_text(-3, 6)),
            )
        )
        argv = [command, spec, "--max-n", max_n, "--length", length]
    elif command == "verify":
        max_len = st.one_of(_int_text(-3, 6), st.integers(15, 10**4).map(str))
        argv = [
            command,
            draw(st.sampled_from(["episturmian", "sturmian", "other"])),
            "--alphabet",
            draw(st.sampled_from(["2", "3", "4", "x"])),
            "--max-len",
            draw(max_len),
        ]
    else:
        argv = [command]
    lines = st.lists(st.one_of(_words, st.just("  ")), max_size=4).map("\n".join)
    stdin = draw(st.one_of(lines, lines, st.just("")))
    return argv + draw(_json) + draw(_extra), stdin


@settings(
    derandomize=True,
    database=None,
    max_examples=800,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argvs())
def test_cli_ends_with_a_documented_exit_code(call):
    argv, stdin = call
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse: --help exits 0, a usage error 2.
                assert exc.code in (0, 2), (argv, exc.code)
                return
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 2:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
    if code == 3:
        assert err.getvalue().startswith("inconclusive: "), (argv, err.getvalue())


_MEMORY_LIMIT = 256 * 2**20
_CPU_SECONDS = 20
_HUGE_EPISKEW = json.dumps(
    {"excluded_letter": "c", "inner_directive": "*ab", "p": 10**12, "suffix_index": 1}
)


def _run_limited(argv, memory_limit, stdin=None):
    # The child gets its own address-space limit, so the input runs into it
    # within a fraction of a second instead of into the machine's memory.
    # stdin, an open file, is the child's standard input.
    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))
        resource.setrlimit(resource.RLIMIT_CPU, (_CPU_SECONDS, _CPU_SECONDS))

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "epiword", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        stdin=stdin,
        preexec_fn=limit_child,
        timeout=4 * _CPU_SECONDS,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--directive", "*ab", "--length", str(10**23)],
        ["generate", "--episkew", _HUGE_EPISKEW, "--length", "5"],
        ["test", "fine", _HUGE_EPISKEW],
        ["complexity", "*ab", "--length", str(10**12), "--max-n", "5"],
    ],
    ids=["generate-directive", "generate-episkew", "test-fine-episkew", "complexity"],
)
def test_inputs_too_large_for_memory_exit_2(argv):
    proc = _run_limited(argv, _MEMORY_LIMIT)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_stability_check_holds_one_window_at_a_time():
    # At k = 4000 a set of every length-k window of the doubled prefixes
    # takes tens of MB; one window scan per order fits well under 64 MB.
    proc = _run_limited(["test", "fine", "*abc", "--k", "4000"], 64 * 2**20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "fine: yes\n", "")


def test_stdin_batch_holds_one_line_at_a_time(tmp_path):
    # 3*10^5 random 20-letter words, 6.3 MB of input. A list of the batch
    # needed between 40 and 48 MB of address space; read a line at a time,
    # the batch passes at 18 MB (Python 3.11.7).
    rng = random.Random(0)
    binary = str.maketrans("01", "ab")
    words = tmp_path / "words.txt"
    with words.open("w") as out:
        for _ in range(300_000):
            out.write(f"{rng.getrandbits(20):020b}\n".translate(binary))
    with words.open() as stdin:
        proc = _run_limited(["balanced", "-"], 32 * 2**20, stdin)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert len(proc.stdout.splitlines()) == 300_000
