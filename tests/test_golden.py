"""Golden outputs: the decider's JSON and the wide-sense check, byte for byte.

Each test hashes the output for every word of an exhaustive budget, in
length-then-itertools.product order, or of the run-heavy families, and
compares the SHA-256 with a recorded value. Any change to a verdict, a reject reason, a certificate field or a
reported bad factor shows up here.
"""

import hashlib
import json
from itertools import product

from epiword import is_finite_episturmian, wide_sense_check


def _words(budget):
    for letters, max_len in budget:
        for n in range(1, max_len + 1):
            for tup in product(letters, repeat=n):
                yield "".join(tup)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
    return h.hexdigest()


def test_decider_json_golden():
    words = list(_words((("ab", 14), ("abc", 8))))
    assert len(words) == 42_606
    digest = _digest(
        json.dumps(is_finite_episturmian(w).to_json_dict(), sort_keys=True) + "\n"
        for w in words
    )
    assert digest == "cf3b986b94e3aa6a29e8be237ad09f0c77d1a61b0728a5cf443b4ec139a40bae"


def test_wide_sense_golden():
    words = list(_words((("ab", 12), ("abc", 7))))
    assert len(words) == 11_469
    lines = []
    for w in words:
        r = wide_sense_check(w)
        lines.append(f"{w} {r.ok} {r.bad_factor}\n")
    assert _digest(lines) == "93427ae2ca41507fd1a050798057c184bb8288554be647b7d6c50ba95bf2b30c"


def test_decider_json_golden_on_run_families():
    # (a^k b)^3 a^k and a^(k+2) b a^k b in both letter roles, k = 1..200.
    words = [
        w
        for k in range(1, 201)
        for a, b in (("a", "b"), ("b", "a"))
        for w in ((a * k + b) * 3 + a * k, a * (k + 2) + b + a * k + b)
    ]
    digest = _digest(
        json.dumps(is_finite_episturmian(w).to_json_dict(), sort_keys=True) + "\n"
        for w in words
    )
    assert digest == "0c5668391a4e68847e677ecbdd7013055bbb3fd1172c19c4d7dcd7f8cfa282c8"


def test_decider_json_golden_on_words_ending_past_a_run():
    # (a^k b)^3 a, a^(k+2) b a^k b a and b a^(k+1) b a^k b a in both letter
    # roles, k = 1..200: each ends in a lone letter after a long run.
    words = [
        w
        for k in range(1, 201)
        for a, b in (("a", "b"), ("b", "a"))
        for w in (
            (a * k + b) * 3 + a,
            a * (k + 2) + b + a * k + b + a,
            b + a * (k + 1) + b + a * k + b + a,
        )
    ]
    assert len(words) == 1_200
    digest = _digest(
        json.dumps(is_finite_episturmian(w).to_json_dict(), sort_keys=True) + "\n"
        for w in words
    )
    assert digest == "16ef1dfaeff1ad7b3879bdb1c43101d22acf7e89c4ee1909d1ebdd23f1b5df54"
