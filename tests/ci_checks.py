"""The CI workflow's checks, one function each, which tier-1 also runs.

`PYTHONPATH=tests python -m ci_checks NAME ARGS` runs one and prints its
time. A check's COMMAND is the CLI's command line, split as a shell splits
it: `epiword` in CI, EPIWORD in tier-1. Every other argument is a size.
"""

import json
import os
import random
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import references
from epiword import Certificate, DirectiveSpec, all_orders, alph, factors, is_finite_episturmian
from epiword.classify import _reduce, _runs
from epiword.cli import _parse_source
from epiword.oracles import _balanced_levels, _episturmian_reference, check_certificate

PYTHON = shlex.quote(sys.executable)
EPIWORD = f"{PYTHON} -m epiword"


def run(command, *args, env=None, memory_mb=None, cpu_seconds=None, **kwargs):
    """subprocess.run of the command line and args, text in and out, stdout
    captured unless given, with the checkout's src first on PYTHONPATH. The
    child's address space and CPU time (and 4 × that wall time) are capped
    where given, so an input runs into its own limit, not the machine's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def limit():
        if memory_mb:
            resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20,) * 2)
        if cpu_seconds:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds,) * 2)

    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [*shlex.split(command), *args], stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=path, **(env or {})),
        preexec_fn=limit if memory_mb or cpu_seconds else None,
        timeout=4 * cpu_seconds if cpu_seconds else None, **kwargs,
    )


def _words(letters, max_len):
    # By length, then in the order of itertools.product.
    return ("".join(t) for n in range(1, max_len + 1) for t in product(letters, repeat=n))


def _json_batch(command, argv, words):
    # Some words are rejected, so the batch exits 1.
    proc = run(command, *argv, "-", "--json", input="\n".join(words))
    assert proc.returncode == 1, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _random_batch(count):
    """A temporary file of count random 20-letter binary words, at its start."""
    batch = tempfile.TemporaryFile("w+")
    rng, binary = random.Random(0), str.maketrans("01", "ab")
    batch.writelines(f"{rng.getrandbits(20):020b}\n".translate(binary) for _ in range(count))
    batch.seek(0)
    return batch


def verify_budgets(command, binary, ternary):
    """`verify` passes both binary checks up to `binary` letters and the
    ternary one up to `ternary`, and covers every word up to its budget, so
    a reference that sweeps fewer words fails as well as one that differs."""
    budgets = ("episturmian", 2, binary), ("sturmian", 2, binary), ("episturmian", 3, ternary)
    for check, size, max_len in budgets:
        argv = ["verify", check, "--alphabet", str(size), "--max-len", str(max_len), "--json"]
        proc = run(command, *argv)
        report, words = json.loads(proc.stdout), sum(size**n for n in range(1, max_len + 1))
        assert (proc.returncode, report["passed"], report["total_words"]) == (0, True, words), argv


def one_pass_reduction(max_len):
    """_reduce against the nested reference, which decides each full reading
    by reducing it again, on every abcd word up to max_len letters and on the
    336 run-family words (a^k b)^3 a^k and a^(k+2) b a^k b and their mirrors.
    Returns the number of words."""
    words = list(_words("abcd", max_len))
    for a, b in ("ab", "ba"):
        words += [(a * k + b) * 3 + a * k for k in [*range(1, 41), *range(50, 121, 10)]]
        words += [a * (k + 2) + b + a * k + b for k in range(1, 121)]
    for w in words:
        got, want = _reduce(_runs(w)), references.reduce_nested(_runs(w), True)
        assert (got[0], "".join(got[1]), got[2]) == (want[0], "".join(want[1]), want[2]), w
    return len(words)


def balance_levels(max_len):
    """The balance oracle's levels against the window count on every binary
    word up to max_len letters."""
    levels = _balanced_levels(max_len)
    for n in range(max_len + 1):
        words = map("".join, product("ab", repeat=n))
        assert levels[n] == set(filter(references.balanced_by_windows, words)), n


def balanced_batch(command, max_len):
    """`balanced -` judges every binary word up to max_len letters in one
    process, with one JSON line per word, in order."""
    words = list(_words("ab", max_len))
    assert [line["word"] for line in _json_batch(command, ["balanced"], words)] == words


def certificates(command, letters, max_len):
    """Each certificate that `test episturmian -` gives a word over letters
    up to max_len passes the independent checker, and its witness is the
    one `witness -` prints. Returns the number accepted."""
    words = list(_words(letters, max_len))
    verdicts, witnesses = (
        _json_batch(command, argv, words) for argv in (["test", "episturmian"], ["witness"])
    )
    accepted = 0
    for w, verdict, line in zip(words, verdicts, witnesses, strict=True):
        c = verdict["certificate"]
        expected = (w, c and c["witness_u"], c is not None)
        assert (line["word"], line["witness"], verdict["accepted"]) == expected, w
        if c:
            # The certificate read back from JSON is the decider's own.
            directive = DirectiveSpec.from_text(c["embedding_directive"])
            certificate = Certificate(**dict(c, embedding_directive=directive))
            assert certificate == is_finite_episturmian(w).certificate, w
            assert check_certificate(w, certificate), w
            accepted += 1
    assert 0 < accepted < len(words), accepted
    return accepted


def bounded_batch(command, words, memory_mb, cpu_seconds):
    """`balanced - --json` on `words` random 20-letter words under a
    memory_mb address-space limit: one line per word and a clean exit 1.
    10^6 words are 21 MB; a list of the batch needs more than 64 MB, and
    read a line at a time the batch runs in about 18 MB."""
    with _random_batch(words) as batch, tempfile.TemporaryFile("w+") as out:
        proc = run(
            command, "balanced", "-", "--json", stdin=batch, stdout=out,
            memory_mb=memory_mb, cpu_seconds=cpu_seconds,
        )
        assert (proc.returncode, proc.stderr) == (1, "")
        out.seek(0)
        assert sum(1 for _ in out) == words


# Each command's stdout goes to a head that exits after a line or 10 letters.
CLOSED_STDOUT = {
    "balanced-head-1": (["balanced", "-", "--json"], "head -1"),
    "generate-head-c-10": (["generate", "--directive", "*ab", "--length", "2000000"], "head -c10"),
}


def closed_stdout(command, words):
    """Each CLOSED_STDOUT command, `balanced` on `words` random words, exits
    2 with the one line `error: output closed` and no traceback on stderr
    when its head exits, within 60 s. Both outputs are far larger than a
    pipe holds, so the child is still writing then."""
    with _random_batch(words) as batch:
        for name, (argv, head) in CLOSED_STDOUT.items():
            pipeline = f"{command} {shlex.join(argv)} | {head}; exit ${{PIPESTATUS[0]}}"
            proc = run("bash", "-c", pipeline, stdin=batch, cpu_seconds=15)
            batch.seek(0)
            expected = (2, "error: output closed\n", True)
            assert (proc.returncode, proc.stderr, bool(proc.stdout)) == expected, name


# F is the first 300 letters of the *ab directed word. A case is its source,
# k, whether it is fine and whether to check that by brute force.
_F = DirectiveSpec("", "ab").prefix(300)
FINE_CASES = {
    "F,c": (_F + ",c", 4, False, True),
    "F,cab": (_F + ",cab", 4, False, True),
    "a,a^300b": ("a," + "a" * 300 + "b", 4, True, True),
    "a^300*b": ("a" * 300 + "*b", 4, True, True),
    "a^200b*ab": ("a" * 200 + "b*ab", 4, True, True),
    "*a^300b": ("*" + "a" * 300 + "b", 4, True, True),
    "*abcdefgh": ("*abcdefgh", 20, True, False),
    "a*bcdefgh": ("a*bcdefgh", 20, False, False),
}


def fine_late_letters(command):
    """`test fine` on the FINE_CASES: all but the last two show a letter or
    factor only after 200 letters or more; those two have 40 320 orders at
    k = 20, of which the check reads 16 and the brute force, too slow there,
    would read each one's least length-k window of a 10^5-letter prefix."""
    for name, (source, k, fine, brute_force) in FINE_CASES.items():
        if brute_force:
            prefix = _parse_source(source).prefix(10**5)
            windows = factors(prefix, k)
            tails = {min(windows, key=order.key)[1:] for order in all_orders(alph(prefix))}
            assert (len(tails) == 1) == fine, name
        proc = run(command, "test", "fine", source, "--k", str(k))
        expected = (0, "fine: yes\n", "") if fine else (1, "fine: no\n", "")
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, name


def _net(words, reference, accepted):
    mismatches, count = [], 0
    for w in words:
        verdict = is_finite_episturmian(w).accepted
        count += verdict
        if verdict != reference(w):
            mismatches.append(w)
    assert (mismatches[:10], count) == ([], accepted)


def episturmian_net(letters, max_len, accepted):
    """The decider against the oracle's discovery table on every word over
    letters up to max_len letters, of which `accepted` are accepted."""
    _net(_words(letters, max_len), _episturmian_reference(letters, max_len), accepted)


def balance_net(max_len, accepted):
    """The decider against the balance oracle on every binary word up to
    max_len letters, of which `accepted` are accepted: the binary finite
    episturmian words are the balanced ones."""
    levels = _balanced_levels(max_len)
    _net(_words("ab", max_len), lambda w: w in levels[len(w)], accepted)


CHECKS = {check.__name__: check for check in (
    verify_budgets, one_pass_reduction, balance_levels, balanced_batch, certificates,
    bounded_batch, closed_stdout, fine_late_letters, episturmian_net, balance_net,
)}


if __name__ == "__main__":
    name, *args = sys.argv[1:]
    start = time.perf_counter()
    CHECKS[name](*(int(a) if a.isdigit() else a for a in args))
    print(f"{name} {' '.join(args)}: passed in {time.perf_counter() - start:.2f} s")
